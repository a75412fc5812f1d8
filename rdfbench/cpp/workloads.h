// The benchmark's workloads. Each builds its data, times its set-up, runs
// its timed window (plain or traced), checks every answer and prints the
// result line.
#ifndef RDFBENCH_WORKLOADS_H_
#define RDFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "rdf/triple.h"
#include "trace.h"

namespace rdfbench {

int RunLubmAnalyst(const Args& args);
int RunSp2b(const Args& args, bool churn);

/// \brief `n` distinct edges (s, p, o) absent from the answerer's explicit
/// database, both ends drawn from `nodes` by `pick` (an index into it).
/// Interned ids only: writers never touch the dictionary.
std::vector<rdfref::rdf::Triple> MakeEdges(
    api::QueryAnswerer* answerer, rdfref::rdf::TermId p,
    const std::vector<rdfref::rdf::TermId>& nodes,
    const std::function<size_t(Rng*)>& pick, size_t n, Rng* rng);

/// \brief What one RunWriter call saw of the store's sealed runs.
struct WriterStats {
  double late_ms = 0;  // the most any write started late
  double runs_sum = 0;  // sealed runs after each write, summed
  uint64_t writes = 0;
  uint64_t compactions = 0;  // drops of the run count between two writes
};

/// \brief Open-loop writer over `edges`: insert them all, then remove them
/// all, and so on, at `rate` per second for up to `ops` writes (or until
/// `stop`), timing each from its due time into `latency_ms`. With a sink,
/// every write is a traced VersionSet::Insert/Remove span. Leaves none of
/// the edges behind.
WriterStats RunWriter(api::QueryAnswerer* answerer,
                      const std::vector<rdfref::rdf::Triple>& edges,
                      double rate, uint64_t ops,
                      const std::atomic<bool>* stop, TraceSink* sink,
                      std::vector<double>* latency_ms);

/// \brief Per-layer metrics taken outside the request spans.
struct LayerExtras {
  double generate_ms = 0, load_ms = 0, view_selection_ms = 0;
  double saturation_ms = 0, closure_ms = 0;
  rdfref::engine::ViewCacheStats cache;  // deltas over the window
  double storage_runs = 0;  // mean sealed runs a churn write saw
  double storage_compactions = 0;  // background compactions in the window
  double write_p99_ms = 0;  // churn writer, from each write's due time
  Calibration calibration;
  double encoded_vs_classic = 0, threads_vs_1 = 0, warm_vs_cold = 0;
  double error_rate = 0;
};
void ReportExtras(const LayerExtras& x, Report* report);

/// \brief Counter deltas of a view cache between two Stats() calls.
rdfref::engine::ViewCacheStats CacheDelta(
    const rdfref::engine::ViewCacheStats& before,
    const rdfref::engine::ViewCacheStats& after);

/// \brief Time ratio of two alternating passes: median(a) / median(b).
double AlternatingRatio(int reps, const std::function<double()>& a,
                        const std::function<double()>& b);

}  // namespace rdfbench

#endif  // RDFBENCH_WORKLOADS_H_
