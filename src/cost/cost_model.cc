#include "cost/cost_model.h"

#include <algorithm>
#include <limits>
#include <set>

namespace rdfref {
namespace cost {

namespace {
using query::Atom;
using query::Cq;
using query::QTerm;
using query::Ucq;
using query::VarId;
}  // namespace

double CostModel::CostCq(const Cq& q) const {
  const std::vector<Atom>& body = q.body();
  if (body.empty()) return 0.0;

  // Greedy ordering by base estimate, preferring connected atoms. The
  // engine starts the same way but ranks the depth-1 atom by fan-out
  // sampled from the data, which a statistics-only estimate cannot see
  // (a hub value costs here what a uniform value costs).
  const size_t n = body.size();
  std::vector<double> base(n);
  for (size_t i = 0; i < n; ++i) base[i] = estimator_.EstimateAtom(body[i]);
  std::vector<bool> used(n, false);
  std::set<VarId> bound;

  double cost = 0.0;
  double inter = 1.0;  // current intermediate cardinality
  for (size_t step = 0; step < n; ++step) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      std::set<VarId> vars = Cq::AtomVars(body[i]);
      bool connected =
          step == 0 || std::any_of(vars.begin(), vars.end(), [&](VarId v) {
            return bound.count(v) > 0;
          });
      if (best == -1 || (connected && !best_connected) ||
          (connected == best_connected &&
           base[i] < base[static_cast<size_t>(best)])) {
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    const Atom& atom = body[static_cast<size_t>(best)];
    used[static_cast<size_t>(best)] = true;

    double selectivity = 1.0;
    for (VarId v : Cq::AtomVars(atom)) {
      if (bound.count(v)) {
        selectivity /= std::max(estimator_.DistinctValues(atom, v), 1.0);
      }
    }
    double matched = base[static_cast<size_t>(best)] * selectivity;
    if (step == 0) {
      // Leading range scan.
      cost += matched * params_.scan_per_row;
      inter = matched;
    } else {
      // One index probe per current intermediate row, then output.
      double produced = inter * matched;
      cost += inter * params_.probe_per_row +
              produced * params_.output_per_row;
      inter = produced;
    }
    std::set<VarId> vars = Cq::AtomVars(atom);
    bound.insert(vars.begin(), vars.end());
  }
  return cost;
}

double CostModel::CostUcq(const Ucq& ucq) const {
  double cost = static_cast<double>(ucq.size()) * params_.per_union_member;
  for (const Cq& member : ucq.members()) cost += CostCq(member);
  cost += EstimateUcqRows(ucq) * params_.dedup_per_row;
  return cost;
}

double CostModel::EstimateUcqRows(const Ucq& ucq) const {
  // Reformulation members overlap heavily by construction (they all
  // retrieve fractions of the same extended answer: an instance typed
  // explicitly is often re-derived by several domain/range members), so a
  // plain sum wildly overestimates the deduplicated union. Textbook
  // practice: the largest member plus a fixed overlap discount on the rest.
  double sum = 0.0, largest = 0.0;
  for (const Cq& member : ucq.members()) {
    double rows = estimator_.EstimateCqRows(member);
    sum += rows;
    largest = std::max(largest, rows);
  }
  return largest + params_.union_overlap * (sum - largest);
}

double CostModel::FragmentDistinct(const Cq& fragment, VarId v,
                                   double fragment_rows) const {
  double distinct = std::numeric_limits<double>::max();
  for (const Atom& a : fragment.body()) {
    if (Cq::AtomVars(a).count(v)) {
      distinct = std::min(distinct, estimator_.DistinctValues(a, v));
    }
  }
  if (distinct == std::numeric_limits<double>::max()) distinct = 1.0;
  return std::max(1.0, std::min(distinct, std::max(fragment_rows, 1.0)));
}

double CostModel::CostJucq(const Cq& q,
                           const std::vector<Cq>& fragment_queries,
                           const std::vector<Ucq>& fragment_ucqs) const {
  (void)q;
  std::vector<FragmentCostInput> inputs;
  inputs.reserve(fragment_ucqs.size());
  for (size_t i = 0; i < fragment_ucqs.size(); ++i) {
    FragmentCostInput in;
    in.eval_cost = CostUcq(fragment_ucqs[i]);
    in.rows = EstimateUcqRows(fragment_ucqs[i]);
    in.fragment_query = &fragment_queries[i];
    inputs.push_back(in);
  }
  return CostJucqFromFragments(inputs);
}

double CostModel::CostJucqFromFragments(
    const std::vector<FragmentCostInput>& fragments) const {
  double cost = 0.0;
  for (const FragmentCostInput& f : fragments) cost += f.eval_cost;
  if (fragments.empty()) return cost;

  // Hash-join phase: smallest fragment first, then greedily the smallest
  // fragment connected to the already-joined variables (mirroring the
  // engine's join-order heuristic — cross products only when unavoidable).
  std::vector<bool> joined(fragments.size(), false);
  size_t first = 0;
  for (size_t i = 1; i < fragments.size(); ++i) {
    if (fragments[i].rows < fragments[first].rows) first = i;
  }
  joined[first] = true;
  double inter = fragments[first].rows;
  std::set<VarId> bound;
  Cq joined_atoms;  // conjunction of all atoms joined so far
  for (const query::Atom& a : fragments[first].fragment_query->body()) {
    joined_atoms.AddAtom(a);
  }
  {
    std::set<VarId> head = fragments[first].fragment_query->HeadVars();
    bound.insert(head.begin(), head.end());
  }
  for (size_t step = 1; step < fragments.size(); ++step) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < fragments.size(); ++i) {
      if (joined[i]) continue;
      std::set<VarId> head = fragments[i].fragment_query->HeadVars();
      bool connected = std::any_of(head.begin(), head.end(), [&](VarId v) {
        return bound.count(v) > 0;
      });
      if (best == -1 || (connected && !best_connected) ||
          (connected == best_connected &&
           fragments[i].rows < fragments[static_cast<size_t>(best)].rows)) {
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    const size_t k = static_cast<size_t>(best);
    joined[k] = true;
    const Cq& fq = *fragments[k].fragment_query;
    double build = fragments[k].rows;
    cost += build * params_.hash_build_per_row +
            inter * params_.hash_probe_per_row;
    // Intermediate estimate: the System-R estimate of the conjunction of
    // all atoms joined so far (one global formula per prefix). Chaining
    // per-fragment selectivities instead would compound each join's
    // overestimate and systematically punish many-fragment covers.
    for (const query::Atom& a : fq.body()) {
      if (std::find(joined_atoms.body().begin(), joined_atoms.body().end(),
                    a) == joined_atoms.body().end()) {
        joined_atoms.AddAtom(a);
      }
    }
    double produced = estimator_.EstimateCqRows(joined_atoms);
    produced = std::min(produced, inter * build);  // join cannot exceed ×
    cost += produced * params_.output_per_row;
    inter = produced;
    std::set<VarId> head = fq.HeadVars();
    bound.insert(head.begin(), head.end());
  }
  cost += inter * params_.dedup_per_row;  // final projection + dedup
  return cost;
}

}  // namespace cost
}  // namespace rdfref
