#ifndef RDFREF_DATALOG_SEMINAIVE_H_
#define RDFREF_DATALOG_SEMINAIVE_H_

#include <span>
#include <vector>

#include "common/annotations.h"
#include "datalog/program.h"
#include "engine/row_index.h"
#include "engine/table.h"

namespace rdfref {
namespace datalog {

/// \brief A materialized Datalog relation: a duplicate-free tuple store in
/// one flat arity-stride arena, deduplicated through an engine::RowIndex
/// set, with one chained RowIndex per column kept up to date on insert (so
/// rule bodies join with index lookups rather than full scans).
///
/// Tuples are numbered in insertion order and never move or disappear, so
/// a row range [lo, hi) names exactly the tuples inserted between two
/// points in time — the semi-naive delta. All const methods are pure reads
/// and safe to call concurrently.
class DlRelation {
 public:
  explicit DlRelation(size_t arity);

  /// \brief Inserts a tuple of `arity()` ids; returns true when new.
  bool Insert(std::span<const rdf::TermId> tuple);

  size_t size() const { return size_; }
  size_t arity() const { return arity_; }

  /// \brief Tuple `i` (in insertion order) as a view into the arena.
  std::span<const rdf::TermId> tuple(size_t i) const RDFREF_LIFETIME_BOUND {
    return {data_.data() + i * arity_, arity_};
  }

  /// \brief Tuples whose column `col` equals `value`, in insertion order.
  /// The chain knows its length; it is invalidated by the next Insert.
  engine::RowIndex::Chain Matching(size_t col, rdf::TermId value) const
      RDFREF_LIFETIME_BOUND {
    return columns_[col].Find(data_.data(), &value);
  }

 private:
  size_t arity_;
  size_t size_ = 0;
  std::vector<rdf::TermId> data_;
  engine::RowIndex set_;
  std::vector<engine::RowIndex> columns_;
};

/// \brief Bottom-up evaluation of a positive Datalog program by the
/// semi-naive fixpoint algorithm: each iteration joins every rule with at
/// least one atom restricted to the previous iteration's delta, so no
/// derivation is recomputed from scratch.
///
/// Body atoms join bound-first: at each depth the join picks, among the
/// atoms not yet joined, the one whose constant or already-bound column
/// has the shortest posting chain, and walks that chain in place. In the
/// fixpoint the delta atom stays first.
class SemiNaive {
 public:
  /// \brief `program` must outlive the evaluator.
  explicit SemiNaive(const Program* program);

  /// \brief EDB loading before Run: inserts `tuple` into `pred`'s relation
  /// directly, alongside the program's own facts.
  bool InsertFact(PredId pred, std::span<const rdf::TermId> tuple) {
    return relations_[pred].Insert(tuple);
  }

  /// \brief Runs to fixpoint (idempotent).
  void Run();

  /// \brief Number of fixpoint iterations of the last Run.
  size_t iterations() const { return iterations_; }

  /// \brief Total tuples across all relations.
  size_t TotalTuples() const;

  const DlRelation& relation(PredId pred) const { return relations_[pred]; }

  /// \brief Evaluates one extra rule once against the current (fixpoint)
  /// relations and returns the derived head tuples, duplicates included,
  /// as a table of the head's arity (used for query rules — queries need
  /// one pass, not another fixpoint). Constant head arguments are emitted
  /// as-is. A pure read: concurrent calls on one evaluator are safe.
  [[nodiscard]] engine::Table EvaluateRuleOnce(const DlRule& rule) const;

 private:
  struct Join;

  void JoinBody(Join* join, size_t depth) const;

  static size_t CountRuleVars(const DlRule& rule);

  const Program* program_;
  std::vector<DlRelation> relations_;
  bool ran_ = false;
  size_t iterations_ = 0;
};

}  // namespace datalog
}  // namespace rdfref

#endif  // RDFREF_DATALOG_SEMINAIVE_H_
