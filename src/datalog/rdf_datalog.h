#ifndef RDFREF_DATALOG_RDF_DATALOG_H_
#define RDFREF_DATALOG_RDF_DATALOG_H_

#include <memory>

#include "common/result.h"
#include "datalog/program.h"
#include "datalog/seminaive.h"
#include "engine/table.h"
#include "query/cq.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace datalog {

/// \brief The Dat answering technique of the demonstration (Section 5): RDF
/// data, RDFS constraints and the query are encoded into a Datalog program
/// evaluated bottom-up (standing in for the LogicBlox engine).
///
/// Encoding:
///   EDB   triple(s, p, o)  — every explicit triple (schema included)
///         resource(x)      — every non-literal value (literals cannot be
///                            typed by the range rule)
///   IDB   tri(s, p, o)     — the saturation G∞, defined by one Datalog
///         rule per RDFS entailment rule (instance *and* schema level)
///   query ans(head) :- tri(t1), ..., tri(tα).
///
/// The closure runs once (semi-naive, lazily at the first Answer call or
/// EnsureClosure), reading the source's triples in one batch scan at that
/// point; each query is then a single-pass rule evaluation over `tri`.
class DatalogAnswerer {
 public:
  /// \brief `source` must outlive the answerer and stay unmodified until
  /// the closure has run.
  explicit DatalogAnswerer(const storage::TripleSource* source);

  /// \brief Answers a conjunctive query against the encoded program.
  Result<engine::Table> Answer(const query::Cq& q);

  /// \brief Milliseconds spent computing the closure (0 until first use).
  double closure_millis() const { return closure_millis_; }

  /// \brief Size of the materialized `tri` relation (0 until first use).
  size_t closure_size() const;

  /// \brief Forces the closure to run now (for benchmarking setup).
  void EnsureClosure();

 private:
  const storage::TripleSource* store_;
  Program program_;
  std::unique_ptr<SemiNaive> evaluator_;
  PredId triple_ = 0, resource_ = 0, tri_ = 0;
  bool ran_ = false;
  double closure_millis_ = 0.0;
};

}  // namespace datalog
}  // namespace rdfref

#endif  // RDFREF_DATALOG_RDF_DATALOG_H_
