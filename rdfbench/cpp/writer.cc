#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "storage/version_set.h"
#include "workloads.h"

namespace rdfbench {

namespace rdf = rdfref::rdf;

std::vector<rdf::Triple> MakeEdges(api::QueryAnswerer* answerer,
                                   rdf::TermId p,
                                   const std::vector<rdf::TermId>& nodes,
                                   const std::function<size_t(Rng*)>& pick,
                                   size_t n, Rng* rng) {
  std::vector<rdf::Triple> edges;
  std::unordered_set<uint64_t> seen;
  for (size_t attempts = 0; edges.size() < n && attempts < 100 * n;
       ++attempts) {
    const rdf::TermId s = nodes[pick(rng)];
    const rdf::TermId o = nodes[pick(rng)];
    if (s == o) continue;
    const rdf::Triple t(s, p, o);
    const uint64_t key = (static_cast<uint64_t>(s) << 32) ^ o;
    if (!seen.insert(key).second || answerer->versions().Contains(t)) {
      continue;
    }
    edges.push_back(t);
  }
  return edges;
}

WriterStats RunWriter(api::QueryAnswerer* answerer,
                      const std::vector<rdf::Triple>& edges, double rate,
                      uint64_t ops, const std::atomic<bool>* stop,
                      TraceSink* sink, std::vector<double>* latency_ms) {
  // Sleep until shortly before the due time, then spin: waking an idle
  // vCPU takes tens to hundreds of microseconds on a VM, which would
  // otherwise dominate the latency of a write that takes a few.
  constexpr int64_t kSpinNs = 300'000;
  // A raised priority (when permitted) keeps the writer's wake-ups from
  // queueing behind the readers on a full machine; failure is harmless.
  (void)setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), -10);
  rdfref::storage::VersionSet& versions = answerer->versions();
  const size_t n = edges.size();
  const int64_t period_ns = static_cast<int64_t>(1e9 / rate);
  const int64_t start = NowNs();
  WriterStats stats;
  size_t runs = versions.num_runs();
  for (uint64_t i = 0; i < ops; ++i) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    const int64_t due = start + static_cast<int64_t>(i) * period_ns;
    int64_t now = NowNs();
    while (due - now > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(due - now - kSpinNs, 2'000'000)));
      now = NowNs();
    }
    while (now < due) now = NowNs();
    stats.late_ms = std::max(stats.late_ms, static_cast<double>(now - due) / 1e6);
    const bool insert = (i / n) % 2 == 0;
    const rdf::Triple& t = edges[i % n];
    if (sink != nullptr) {
      TracedWrite(&versions, t, insert, sink);
    } else if (insert) {
      versions.Insert(t);
    } else {
      versions.Remove(t);
    }
    latency_ms->push_back(static_cast<double>(NowNs() - due) / 1e6);
    // Only a compaction lowers the run count, and compact_min_runs freezes
    // must come between two compactions: one drop is one compaction.
    const size_t now_runs = versions.num_runs();
    if (now_runs < runs) ++stats.compactions;
    runs = now_runs;
    stats.runs_sum += static_cast<double>(runs);
    ++stats.writes;
  }
  for (const rdf::Triple& t : edges) {
    if (versions.Contains(t)) versions.Remove(t);
  }
  return stats;
}

void ReportExtras(const LayerExtras& x, Report* r) {
  r->Add("setup.generate_ms", x.generate_ms, "ms");
  r->Add("setup.load_ms", x.load_ms, "ms");
  r->Add("setup.view_selection_ms", x.view_selection_ms, "ms");
  r->Add("reasoner.saturation_ms", x.saturation_ms, "ms");
  r->Add("datalog.closure_ms", x.closure_ms, "ms");
  r->Add("storage.runs", x.storage_runs, "count");
  r->Add("storage.compactions", x.storage_compactions, "count");
  r->Add("storage.write_p99_ms", x.write_p99_ms, "ms");
  r->Add("view_cache.hit_rate", x.cache.hit_rate(), "ratio");
  r->Add("view_cache.installs", static_cast<double>(x.cache.installs),
         "count");
  r->Add("view_cache.invalidations",
         static_cast<double>(x.cache.invalidations), "count");
  r->Add("view_cache.evictions", static_cast<double>(x.cache.evictions),
         "count");
  r->Add("view_cache.bytes", static_cast<double>(x.cache.bytes), "bytes");
  r->Add("api.overhead_us", x.calibration.api_overhead_us, "us");
  r->Add("trace.overhead_frac", x.calibration.trace_overhead_frac, "ratio");
  r->Add("ratio.encoded_vs_classic", x.encoded_vs_classic, "ratio");
  r->Add("ratio.threads_vs_1", x.threads_vs_1, "ratio");
  r->Add("ratio.warm_vs_cold", x.warm_vs_cold, "ratio");
  r->Add("error_rate", x.error_rate, "ratio");
}

rdfref::engine::ViewCacheStats CacheDelta(
    const rdfref::engine::ViewCacheStats& b,
    const rdfref::engine::ViewCacheStats& a) {
  rdfref::engine::ViewCacheStats d = a;  // gauges: end values
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.installs = a.installs - b.installs;
  d.evictions = a.evictions - b.evictions;
  d.invalidations = a.invalidations - b.invalidations;
  d.rejected = a.rejected - b.rejected;
  d.lost_races = a.lost_races - b.lost_races;
  return d;
}

double AlternatingRatio(int reps, const std::function<double()>& a,
                        const std::function<double()>& b) {
  std::vector<double> ta, tb;
  for (int i = 0; i < reps; ++i) {
    if (i % 2 == 0) {
      ta.push_back(a());
      tb.push_back(b());
    } else {
      tb.push_back(b());
      ta.push_back(a());
    }
  }
  const double mb = Median(tb);
  return mb > 0 ? Median(ta) / mb : 0.0;
}

}  // namespace rdfbench
