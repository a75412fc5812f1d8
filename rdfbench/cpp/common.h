// Shared pieces of the benchmark binary: arguments, clocks, answer digests,
// request text generation, and the result printer.
#ifndef RDFBENCH_COMMON_H_
#define RDFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/query_answering.h"
#include "common/hash.h"
#include "engine/table.h"

namespace rdfbench {

using rdfref::Rng;
namespace api = rdfref::api;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small data (1 LUBM university, sp2b scale 0.1) for self-tests.
  bool tiny = false;
  /// Self-test hook, so that the answer check must report failures: flips
  /// the reference digest of this request key, or on sp2b-churn the kept
  /// digest of this pinned sample (in recheck order). -1 flips none.
  int corrupt_digest = -1;
  /// Source revision stamped into the result (filled in by run.py).
  std::string rev = "unknown";
  /// Where the traced run writes its spans (CSV).
  std::string spans_path;
};

/// \brief Monotonic nanoseconds.
int64_t NowNs();
/// \brief CPU time of the whole process / of the calling thread, in ns.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();
/// \brief Peak resident set size of the process in MiB, less the speed
/// probe's buffer (resident from the first probe to the end of the run).
double PeakRssMb();

/// \brief Order-independent digest of an answer: a commutative sum of
/// per-row hashes plus the row count. Equal answer sets (rows in any order)
/// give equal digests.
uint64_t Digest(const rdfref::engine::Table& table);

/// \brief FNV-1a over a string, chained from `h`.
uint64_t Fnv(const std::string& s, uint64_t h = 1469598103934665603ULL);

/// \brief Appends `suffix` to every ?variable of a SPARQL text.
std::string RenameVars(const std::string& text, const std::string& suffix);

double Median(std::vector<double> v);
/// \brief Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);
/// \brief Percentile `p` of each slice times that slice's scale.
std::vector<double> PerSlice(const std::vector<std::vector<double>>& slices,
                             double p, const std::vector<double>& scales);

/// \brief Machine-speed probe. On a shared host, neighbours slow this
/// program's memory-bound work by up to 1.4x for seconds to minutes at a
/// time, far more than the bounds a benchmark can hold. The probe is a
/// fixed hash-table and random-access kernel (no library code), timed
/// while the program is idle. Returns the median of three runs, in ms.
double ProbeMs();

/// \brief Scale of a time measured between two probes: the reference probe
/// time over their mean. Times are reported multiplied by it, i.e. in ms
/// of a machine on which the probe takes kProbeReferenceMs; rates divided.
constexpr double kProbeReferenceMs = 4.0;
double Scale(double probe_before_ms, double probe_after_ms);

/// \brief One answered request, as the checker sees it.
struct Outcome {
  bool ok = false;
  uint64_t digest = 0;
};

/// \brief Metrics in insertion order, printed as the last stdout line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  /// \brief Prints the result object; returns the process exit code.
  int Print(uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// \brief Prints the build stamp line and returns false when the build must
/// not be timed (no optimisation, or sanitizers compiled in).
bool StampBuild(const Args& args);

/// \brief The sp2b / LUBM strategies of a suite pass, in round order.
const std::vector<api::Strategy>& SuiteStrategies();
/// \brief Metric suffix of a strategy ("sat", "ref_ucq", ...).
const char* StrategyKey(api::Strategy s);

}  // namespace rdfbench

#endif  // RDFBENCH_COMMON_H_
