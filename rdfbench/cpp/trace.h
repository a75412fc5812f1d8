// Traced replay of one request: the benchmark calls the public functions of
// each layer in the order QueryAnswerer::Answer uses them, timing a span
// around each call and counting storage probes through a forwarding
// TripleSource. Spans stay in memory and are written out at the end.
#ifndef RDFBENCH_TRACE_H_
#define RDFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "engine/view_cache.h"
#include "optimizer/gcov.h"
#include "storage/triple_source.h"

namespace rdfbench {

/// Layers a span can belong to.
enum class Layer : uint8_t {
  kRequest,      // the whole request (root span)
  kParse,        // query::ParseSparql
  kReformulate,  // Reformulator::Reformulate (per fragment for JUCQs)
  kGcov,         // CostModel + CoverOptimizer::Greedy
  kPin,          // VersionSet::snapshot
  kEval,         // Evaluator::EvaluateCq / EvaluateUcqView / EvaluateJucq
  kSatStore,     // QueryAnswerer::sat_store
  kDatalog,      // QueryAnswerer::Answer under Dat
  kInsert,       // VersionSet::Insert
  kRemove,       // VersionSet::Remove
};
constexpr int kNumLayers = static_cast<int>(Layer::kRemove) + 1;
const char* LayerName(Layer layer);

struct Span {
  uint32_t request = 0;  // spans of one request share this id
  uint32_t thread = 0;   // client (or writer) that recorded it
  Layer layer = Layer::kRequest;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief Storage probe counters filled by CountingSource (shared by the
/// pool threads of one evaluation, hence atomic).
struct ProbeCounters {
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> rows{0};
  std::atomic<int64_t> scan_ns{0};
};

/// \brief A TripleSource that forwards every call to `inner` and counts
/// probes, rows returned, and time spent in range and scan calls.
class CountingSource final : public rdfref::storage::TripleSource {
 public:
  CountingSource(const rdfref::storage::TripleSource* inner,
                 ProbeCounters* counters)
      : inner_(inner), c_(counters) {}

  void Scan(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
            rdfref::rdf::TermId o,
            const std::function<void(const rdfref::rdf::Triple&)>& fn)
      const override;  // rdfref-check: allow(std-function)
  bool TryGetRange(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                   rdfref::rdf::TermId o,
                   std::span<const rdfref::rdf::Triple>* out) const override;
  bool TryGetRangeHinted(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                         rdfref::rdf::TermId o,
                         std::span<const rdfref::rdf::Triple>* out,
                         rdfref::storage::RangeHint* hint) const override;
  void ScanInto(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                rdfref::rdf::TermId o,
                std::vector<rdfref::rdf::Triple>* out) const override;
  size_t CountMatches(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                      rdfref::rdf::TermId o) const override;
  bool TryGetIntervalRange(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                           rdfref::rdf::TermId o, int range_pos,
                           rdfref::rdf::TermId hi,
                           std::span<const rdfref::rdf::Triple>* out)
      const override;
  void ScanIntervalInto(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                        rdfref::rdf::TermId o, int range_pos,
                        rdfref::rdf::TermId hi,
                        std::vector<rdfref::rdf::Triple>* out) const override;
  size_t CountIntervalMatches(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                              rdfref::rdf::TermId o, int range_pos,
                              rdfref::rdf::TermId hi) const override;
  const rdfref::rdf::Dictionary& dict() const override {
    return inner_->dict();
  }

 private:
  void Count(int64_t start_ns, size_t rows) const;

  const rdfref::storage::TripleSource* inner_;
  ProbeCounters* c_;
};

/// \brief Per-thread trace state: the spans plus per-layer totals. Each
/// client thread owns one; they are merged after the threads join.
struct TraceSink {
  uint32_t thread = 0;
  uint32_t next_request = 0;
  std::vector<Span> spans;

  uint64_t requests = 0;
  int64_t request_ns = 0;
  int64_t covered_ns = 0;  // request time inside child layer spans
  int64_t layer_ns[kNumLayers] = {};
  uint64_t ucq_members = 0;
  uint64_t interval_atoms = 0;
  uint64_t gcov_calls = 0;
  uint64_t covers_explored = 0;
  uint64_t fragment_rows = 0;
  uint64_t rows_out = 0;
  uint64_t probes = 0;
  uint64_t rows_scanned = 0;
  int64_t scan_ns = 0;
  int64_t join_ns = 0;
  int64_t eval_cpu_ns = 0;
  int64_t eval_wall_ns = 0;
  uint64_t dat_calls = 0;
  int64_t dat_eval_ns = 0;
  uint64_t inserts = 0;
  uint64_t removes = 0;
  std::vector<double> qerrors;

  /// \brief Records a span of the current request.
  void Add(Layer layer, int64_t start_ns, int64_t end_ns);
  void Merge(const TraceSink& other);
};

/// \brief What the traced pipeline needs beyond the answerer: the view
/// cache the benchmark attached itself (the answerer keeps its own
/// private), and the GCov hints of the view selection.
struct TraceEnv {
  api::QueryAnswerer* answerer = nullptr;
  rdfref::engine::ViewCache* cache = nullptr;
  const rdfref::optimizer::ViewHints* hints = nullptr;
  /// When false, evaluation reads the layer's own source (spans only, no
  /// probe counting): the light replay that api.overhead_us is taken from.
  bool count_probes = true;
};

/// \brief One request of a calibration or ratio pass.
struct Request {
  std::string text;
  api::Strategy strategy = api::Strategy::kRefGcov;
  api::AnswerOptions options;
  uint64_t reference = 0;  // expected digest
};

/// \brief Post-window calibration over `requests`, alternating the plain
/// and traced paths `reps` times. api.overhead_us is the median of
/// (Answer wall - layer spans of a light replay); trace.overhead_frac is
/// traced replay wall over plain (parse + Answer) wall, minus one.
/// Digest mismatches are added to `*failed`.
struct Calibration {
  double api_overhead_us = 0.0;
  double trace_overhead_frac = 0.0;
};
Calibration Calibrate(const TraceEnv& env, const std::vector<Request>& requests,
                      int reps, uint64_t* failed);

/// \brief Wall ms of answering every request once through the traced
/// pipeline (spans discarded); digest mismatches are added to `*failed`.
double PassMs(const TraceEnv& env, const std::vector<Request>& requests,
              uint64_t* failed);

/// \brief Answers `text` the way QueryAnswerer::Answer does, one public
/// layer call at a time, recording spans and counters into `sink`.
Outcome TracedAnswer(const TraceEnv& env, const std::string& text,
                     api::Strategy strategy, const api::AnswerOptions& options,
                     TraceSink* sink);

/// \brief Untraced path: ParseSparql + QueryAnswerer::Answer.
Outcome PlainAnswer(api::QueryAnswerer* answerer, const std::string& text,
                    api::Strategy strategy, const api::AnswerOptions& options);

/// \brief Timed VersionSet write recorded as a span.
void TracedWrite(rdfref::storage::VersionSet* versions,
                 const rdfref::rdf::Triple& t, bool insert, TraceSink* sink);

/// \brief Adds the per-layer metrics of a merged sink to `report`.
void ReportLayers(const TraceSink& sink, Report* report);

/// \brief Writes every span as CSV (request,thread,layer,start_ns,end_ns).
void WriteSpans(const TraceSink& sink, const std::string& path);

}  // namespace rdfbench

#endif  // RDFBENCH_TRACE_H_
