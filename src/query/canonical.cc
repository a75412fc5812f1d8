#include "query/canonical.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"

namespace rdfref {
namespace query {
namespace {

// Collapses degenerate intervals ([c..c] is just c) and drops
// exact-duplicate atoms, preserving first-occurrence order. Equivariant
// under variable renaming: duplicates stay duplicates when every variable
// is renamed consistently.
Cq NormalizeAtoms(const Cq& q) {
  Cq out = q;
  std::vector<Atom>* body = out.mutable_body();
  for (Atom& a : *body) {
    if (a.has_range() && a.range_hi == a.range_lo()) {
      a.range_pos = Atom::kRangeNone;
      a.range_hi = 0;
    }
  }
  std::set<Atom> seen;
  std::vector<Atom> deduped;
  deduped.reserve(body->size());
  for (const Atom& a : *body) {
    if (seen.insert(a).second) deduped.push_back(a);
  }
  *body = std::move(deduped);
  return out;
}

// One canonicalization step: rename variables by first occurrence (head
// then body, each atom s/p/o), then sort the renamed body. The output's
// variables are 0..n-1 in first-occurrence order *of the input*, so a
// second step can still shuffle names when sorting moved atoms — hence the
// fixpoint iteration in Canonicalize.
Cq Step(const Cq& q) {
  std::unordered_map<VarId, VarId> rank;
  auto note = [&rank](const QTerm& t) {
    if (t.is_var) rank.emplace(t.var(), static_cast<VarId>(rank.size()));
  };
  for (const QTerm& t : q.head()) note(t);
  for (const Atom& a : q.body()) {
    note(a.s);
    note(a.p);
    note(a.o);
  }

  Cq out;
  for (size_t i = 0; i < rank.size(); ++i) {
    out.AddVar(Numbered("v", i));
  }
  auto conv = [&rank](const QTerm& t) {
    return t.is_var ? QTerm::Var(rank.at(t.var())) : t;
  };
  for (const QTerm& t : q.head()) out.AddHead(conv(t));

  std::vector<Atom> body;
  body.reserve(q.body().size());
  for (const Atom& a : q.body()) {
    Atom r(conv(a.s), conv(a.p), conv(a.o));
    r.range_pos = a.range_pos;
    r.range_hi = a.range_hi;
    body.push_back(r);
  }
  std::sort(body.begin(), body.end());
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0 && body[i] == body[i - 1]) continue;  // sorted ⇒ global dedup
    out.AddAtom(body[i]);
  }
  for (VarId v : q.resource_vars()) {
    auto it = rank.find(v);
    // A resource var that occurs nowhere constrains nothing; drop it so
    // α-equivalent queries with stray declarations agree.
    if (it != rank.end()) out.AddResourceVar(it->second);
  }
  return out;
}

}  // namespace

CanonicalCq Canonicalize(const Cq& q) {
  Cq state = NormalizeAtoms(q);
  // Step is a function on a finite orbit (renamings × atom orders), so
  // iterating must either reach a fixpoint or enter a cycle. Keys recorded
  // in visit order detect the cycle; its lexicographically smallest state
  // is the representative (any member would do — smallest makes the choice
  // independent of the entry point, which is what idempotence needs).
  std::map<std::string, Cq> seen;
  std::vector<std::string> order;
  for (;;) {
    state = Step(state);
    // On a Step output the first-occurrence renaming is the identity, so
    // CanonicalKey() is an exact serialization of the state.
    std::string key = state.CanonicalKey();
    auto [it, inserted] = seen.emplace(key, state);
    if (!inserted) {
      size_t entry = 0;
      while (order[entry] != key) ++entry;
      const std::string* best = &order[entry];
      for (size_t i = entry + 1; i < order.size(); ++i) {
        if (order[i] < *best) best = &order[i];
      }
      return CanonicalCq{seen.at(*best), *best};
    }
    order.push_back(std::move(key));
  }
}

std::string UcqPlanKey(const Ucq& ucq) {
  std::string key;
  for (const Cq& member : ucq.members()) {
    key += member.CanonicalKey();
    key += '\n';
  }
  return key;
}

}  // namespace query
}  // namespace rdfref
