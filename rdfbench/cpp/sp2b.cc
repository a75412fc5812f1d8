// sp2b-serve and sp2b-churn: many short Ref-GCov requests from concurrent
// closed-loop callers over SP2Bench-style data (scale 1.0), with the 7
// shapes and 80/20 weights of the sp2b mix and constants drawn from a seeded
// Zipf(1). sp2b-churn adds an open-loop writer of sp:cites edges, the view
// cache with view selection, and background compaction.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/sp2b.h"
#include "query/sparql_parser.h"
#include "rdf/graph.h"
#include "storage/version_set.h"
#include "workloads.h"

namespace rdfbench {

namespace {

namespace rdf = rdfref::rdf;
using rdfref::datagen::Sp2b;
using rdfref::datagen::ZipfSampler;

constexpr const char* kPrefix = "PREFIX sp: <http://rdfref.org/sp2b#>\n";

enum class Pool { kNone, kDoc, kAuthor, kVenue };

struct Shape {
  const char* name;
  double weight;
  Pool pool;
  // Query text; "$" stands for the constant of the shape's pool.
  const char* body;
  std::vector<std::vector<int>> cover;  // hand-picked JUCQ cover
};

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> kShapes = {
      {"P1-citers", 30, Pool::kDoc, "SELECT ?x WHERE { ?x sp:cites $ . }",
       {}},
      {"T2-publications", 15, Pool::kNone,
       "SELECT ?d WHERE { ?d a sp:Publication . }", {}},
      {"V3-event-papers", 20, Pool::kNone,
       "SELECT ?d ?v WHERE { ?d sp:publishedIn ?v . ?v a sp:Event . }",
       {{0}, {1}}},
      {"S4-venue-star", 8, Pool::kVenue,
       "SELECT ?d ?p ?o WHERE { ?d a sp:Article . ?d sp:hasContributor ?p . "
       "?d sp:publishedIn $ . ?d sp:references ?o . }",
       {{0, 1}, {0, 2}, {0, 3}}},
      {"C5-author-chain", 8, Pool::kAuthor,
       "SELECT ?w ?x ?y ?v WHERE { ?w sp:hasFirstAuthor $ . "
       "?w sp:cites ?x . ?x sp:cites ?y . ?y sp:publishedIn ?v . }",
       {{0, 1}, {1, 2}, {2, 3}}},
      {"Y6-mutual-citations", 9, Pool::kNone,
       "SELECT ?x ?y WHERE { ?x sp:cites ?y . ?y sp:cites ?x . }",
       {{0}, {1}}},
      {"A7-coauthor-cites", 10, Pool::kNone,
       "SELECT ?x ?y ?p WHERE { ?x sp:hasAuthor ?p . ?y sp:hasAuthor ?p . "
       "?x sp:cites ?y . }",
       {{0, 2}, {1, 2}}},
  };
  return kShapes;
}

constexpr int kShapeStride = 1 << 20;  // request key = shape * stride + rank

// The generated entity pools (rank 0 = most popular, as in the generator).
struct Pools {
  int docs = 0, authors = 0, venues = 0;

  int size(Pool p) const {
    return p == Pool::kDoc      ? docs
           : p == Pool::kAuthor ? authors
           : p == Pool::kVenue  ? venues
                                : 1;
  }
  static std::string Uri(Pool p, int rank) {
    switch (p) {
      case Pool::kDoc:
        return Sp2b::DocumentUri(rank);
      case Pool::kAuthor:
        return std::string(Sp2b::kNs) + "author/" + std::to_string(rank);
      case Pool::kVenue:
        return std::string(Sp2b::kNs) + "venue/" + std::to_string(rank);
      case Pool::kNone:
        break;
    }
    return "";
  }
};

std::string ShapeText(size_t shape, int rank) {
  std::string body = Shapes()[shape].body;
  const size_t at = body.find('$');
  if (at != std::string::npos) {
    body.replace(at, 1, "<" + Pools::Uri(Shapes()[shape].pool, rank) + ">");
  }
  return kPrefix + body;
}

struct Sp2bRequest {
  int key = 0;
  std::string text;
  bool sampled = false;  // churn: keep the pin and digest for a recheck
};

// One client's request stream: a pure function of (seed, client).
class RequestStream {
 public:
  RequestStream(const Pools& pools, Rng rng)
      : rng_(rng),
        doc_zipf_(pools.docs, 1.0),
        author_zipf_(pools.authors, 1.0),
        venue_zipf_(pools.venues, 1.0) {
    double total = 0;
    for (const Shape& s : Shapes()) cumulative_.push_back(total += s.weight);
  }

  Sp2bRequest Next() {
    const double u = rng_.UniformDouble() * cumulative_.back();
    size_t shape = 0;
    while (shape + 1 < cumulative_.size() && u >= cumulative_[shape]) ++shape;
    const Pool pool = Shapes()[shape].pool;
    const int rank =
        pool == Pool::kDoc      ? static_cast<int>(doc_zipf_.Sample(&rng_))
        : pool == Pool::kAuthor ? static_cast<int>(author_zipf_.Sample(&rng_))
        : pool == Pool::kVenue  ? static_cast<int>(venue_zipf_.Sample(&rng_))
                                : 0;
    Sp2bRequest r;
    r.key = static_cast<int>(shape) * kShapeStride + rank;
    r.text = RenameVars(ShapeText(shape, rank),
                        "_" + std::to_string(rng_.Uniform(1000000)));
    r.sampled = rng_.Uniform(64) == 0;
    return r;
  }

 private:
  Rng rng_;
  ZipfSampler doc_zipf_, author_zipf_, venue_zipf_;
  std::vector<double> cumulative_;
};

struct Setup {
  std::unique_ptr<api::QueryAnswerer> answerer;
  Pools pools;
  rdfref::optimizer::ViewSelectionResult selection;
  double total_s = 0, generate_ms = 0, load_ms = 0, closure_ms = 0,
         view_selection_ms = 0;
};

std::vector<rdfref::optimizer::WorkloadQueryProfile> MixProfiles(
    api::QueryAnswerer* answerer) {
  std::vector<rdfref::optimizer::WorkloadQueryProfile> profiles;
  for (size_t i = 0; i < Shapes().size(); ++i) {
    rdfref::Result<rdfref::query::Cq> q =
        rdfref::query::ParseSparql(ShapeText(i, 0), &answerer->dict());
    if (!q.ok()) continue;
    rdfref::optimizer::WorkloadQueryProfile p;
    p.cq = std::move(*q);
    p.weight = Shapes()[i].weight;
    if (!Shapes()[i].cover.empty()) {
      rdfref::query::Cover cover(Shapes()[i].cover);
      if (cover.Validate(p.cq).ok()) p.covers.push_back(cover);
    }
    profiles.push_back(std::move(p));
  }
  return profiles;
}

Setup BuildSetup(bool tiny, bool churn, bool trace) {
  Setup s;
  const int64_t t0 = NowNs();
  rdfref::datagen::Sp2bConfig config;
  config.scale = tiny ? 0.1 : 1.0;
  rdf::Graph graph;
  Sp2b::Generate(config, &graph);
  // The generator's pool sizes (documents scale the rest).
  s.pools.docs = std::max(1, static_cast<int>(config.documents * config.scale));
  s.pools.authors = std::max(2, s.pools.docs * 3 / 5);
  s.pools.venues = std::max(3, s.pools.docs / 25);
  const int64_t t1 = NowNs();
  s.answerer = std::make_unique<api::QueryAnswerer>(std::move(graph));
  const int64_t t2 = NowNs();
  s.answerer->sat_store();
  const int64_t t3 = NowNs();
  (void)PlainAnswer(s.answerer.get(), ShapeText(1, 0),
                    api::Strategy::kDatalog, {});
  const int64_t t4 = NowNs();
  if (churn) {
    // The traced run attaches a cache of its own (see RunSp2b).
    if (!trace) s.answerer->EnableViewCache();
    rdfref::Result<rdfref::optimizer::ViewSelectionResult> selection =
        s.answerer->SelectViews(MixProfiles(s.answerer.get()));
    if (selection.ok()) s.selection = std::move(*selection);
  }
  const int64_t t5 = NowNs();
  s.generate_ms = static_cast<double>(t1 - t0) / 1e6;
  s.load_ms = static_cast<double>(t2 - t1) / 1e6;
  s.closure_ms = static_cast<double>(t4 - t3) / 1e6;
  s.view_selection_ms = static_cast<double>(t5 - t4) / 1e6;
  s.total_s = static_cast<double>(t5 - t0) / 1e9;
  return s;
}

// A churn request kept for the post-window recheck against its pin.
struct Sample {
  std::string text;
  rdfref::storage::SnapshotPtr pin;
  uint64_t digest = 0;
};

constexpr int kClients = 4;       // sp2b-serve: closed-loop clients
constexpr int kReaders = 3;       // sp2b-churn: closed-loop readers
constexpr double kChurnRate = 50;  // sp2b-churn: writes per second
// sp2b-churn: the writer's edges. A slice restarts the writer, so one
// insert-then-remove cycle (2 * kChurnEdges writes) must fit in a slice.
constexpr size_t kChurnEdges = 16;
constexpr size_t kMaxSamplesPerClient = 32;
constexpr int kSlices = 10;  // window slices, one suite round after each

}  // namespace

int RunSp2b(const Args& args, bool churn) {
  std::vector<double> setup_s, raw_setup_s;
  Setup setup;
  const int setups = args.tiny ? 1 : 7;
  for (int i = 0; i < setups; ++i) {
    setup = Setup{};
    const double probe = ProbeMs();
    setup = BuildSetup(args.tiny, churn, args.trace);
    raw_setup_s.push_back(setup.total_s);
    setup_s.push_back(setup.total_s * Scale(probe, ProbeMs()));
  }
  api::QueryAnswerer* answerer = setup.answerer.get();
  const Pools& pools = setup.pools;
  std::printf("# %s: %zu explicit triples, setup %.3f s raw, %.3f s scaled "
              "(median of %d)\n",
              churn ? "sp2b-churn" : "sp2b-serve",
              answerer->num_explicit_triples(), Median(raw_setup_s),
              Median(setup_s), setups);

  // Reference digests from Sat, off the clock: every request key of
  // sp2b-serve; under churn the answers move with the writes, so only the
  // post-window suite passes (rank-0 constants) are checked against Sat.
  std::map<int, uint64_t> reference;
  for (size_t shape = 0; shape < Shapes().size(); ++shape) {
    const int ranks = churn ? 1 : pools.size(Shapes()[shape].pool);
    for (int rank = 0; rank < ranks; ++rank) {
      const Outcome o = PlainAnswer(answerer, ShapeText(shape, rank),
                                    api::Strategy::kSaturation, {});
      if (!o.ok) {
        std::fprintf(stderr, "reference answer failed for %s\n",
                     ShapeText(shape, rank).c_str());
        return 1;
      }
      reference[static_cast<int>(shape) * kShapeStride + rank] = o.digest;
    }
  }
  if (!churn && reference.count(args.corrupt_digest) > 0) {
    reference[args.corrupt_digest] ^= 1;
  }

  const int clients = churn ? kReaders : kClients;
  std::vector<Rng> client_rngs;
  {
    Rng root(args.seed);
    for (int c = 0; c < clients; ++c) client_rngs.push_back(root.Split());
  }
  {
    std::string hashes;
    for (int c = 0; c < clients; ++c) {
      RequestStream stream(pools, client_rngs[c]);
      uint64_t h = Fnv("");
      for (int i = 0; i < 256; ++i) h = Fnv(stream.Next().text, h);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s\"client%d\": \"%016llx\"",
                    c == 0 ? "" : ", ", c, static_cast<unsigned long long>(h));
      hashes += buf;
    }
    std::printf("{\"request_hash\": {%s}}\n", hashes.c_str());
  }

  // The traced run attaches its own cache the way EnableViewCache does:
  // preferred views from the selection, registered as the write observer.
  std::unique_ptr<rdfref::engine::ViewCache> own_cache;
  if (churn && args.trace) {
    own_cache = std::make_unique<rdfref::engine::ViewCache>();
    own_cache->SetPreferred(setup.selection.chosen_keys);
    answerer->versions().SetWriteObserver(own_cache.get());
  }
  TraceEnv env;
  env.answerer = answerer;
  env.cache = own_cache.get();
  env.hints = &setup.selection.hints;
  auto cache_stats = [&] {
    return own_cache != nullptr ? own_cache->Stats()
                                : answerer->view_cache_stats();
  };

  api::AnswerOptions options;  // threads = 1, Ref-GCov
  options.use_view_cache = churn;
  constexpr api::Strategy kStrategy = api::Strategy::kRefGcov;

  // Warm-up: one request per shape (fills the cache under churn).
  {
    TraceSink warm;
    for (size_t shape = 0; shape < Shapes().size(); ++shape) {
      const std::string text = ShapeText(shape, 0);
      (void)(args.trace ? TracedAnswer(env, text, kStrategy, options, &warm)
                        : PlainAnswer(answerer, text, kStrategy, options));
    }
  }

  std::vector<rdf::Triple> edges;
  {
    // sp:cites edges between documents drawn from the readers' Zipf, so the
    // writes overlap the hot views.
    const rdf::TermId cites = answerer->dict().InternUri(Sp2b::Uri("cites"));
    std::vector<rdf::TermId> docs;
    for (int i = 0; i < pools.docs; ++i) {
      docs.push_back(answerer->dict().InternUri(Sp2b::DocumentUri(i)));
    }
    const ZipfSampler zipf(docs.size(), 1.0);
    Rng rng(args.seed ^ 0x77726974ULL);
    edges = MakeEdges(
        answerer, cites, docs, [&zipf](Rng* r) { return zipf.Sample(r); },
        kChurnEdges, &rng);
  }

  const rdfref::engine::ViewCacheStats cache_before = cache_stats();
  if (churn) {
    rdfref::storage::VersionSetOptions maintenance;
    // Each insert-then-remove cycle of the writer seals 4 runs, so every
    // slice longer than ~0.6 s holds freezes and background compactions.
    maintenance.freeze_threshold = kChurnEdges / 2;
    maintenance.compact_min_runs = 3;
    answerer->versions().StartBackgroundCompaction(maintenance);
  }

  // The window runs as kSlices slices. Between slices the callers pause
  // and one suite round runs single-threaded, so the suite passes sample
  // the whole run rather than one burst after it.
  std::vector<TraceSink> sinks(static_cast<size_t>(clients) + 1);
  for (size_t i = 0; i < sinks.size(); ++i) {
    sinks[i].thread = static_cast<uint32_t>(i);
  }
  std::vector<RequestStream> streams;
  for (int c = 0; c < clients; ++c) streams.emplace_back(pools, client_rngs[c]);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<uint64_t> attempted_by(clients, 0), failed_by(clients, 0);
  std::vector<std::vector<Sample>> samples(clients);
  std::vector<std::vector<double>> slice_latency_ms, slice_write_ms;
  double scaled_window_s = 0;
  std::vector<std::vector<double>> pass_ms(SuiteStrategies().size());
  uint64_t attempted = 0, failed = 0;
  double window_s = 0;
  Rng suite_rng(args.seed ^ 0x7375697465ULL);
  api::AnswerOptions suite_options;
  suite_options.use_view_cache = false;
  TraceSink& sink = sinks[0];
  std::vector<double> slice_scales;
  WriterStats writer_stats;  // summed over the slices
  double probe = ProbeMs();

  for (int slice = 0; slice < kSlices; ++slice) {
    std::atomic<bool> stop{false};
    std::vector<size_t> first(clients);
    for (int c = 0; c < clients; ++c) first[c] = latencies[c].size();
    slice_write_ms.emplace_back();
    const int64_t slice_start = NowNs();
    std::thread writer;
    if (churn) {
      writer = std::thread([&] {
        const WriterStats w = RunWriter(
            answerer, edges, kChurnRate,
            static_cast<uint64_t>(kChurnRate * (args.seconds + 60)), &stop,
            args.trace ? &sinks[clients] : nullptr, &slice_write_ms.back());
        writer_stats.late_ms = std::max(writer_stats.late_ms, w.late_ms);
        writer_stats.runs_sum += w.runs_sum;
        writer_stats.writes += w.writes;
        writer_stats.compactions += w.compactions;
      });
    }
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        TraceSink* client_sink = &sinks[c];
        while (!stop.load(std::memory_order_relaxed)) {
          const Sp2bRequest r = streams[c].Next();
          api::AnswerOptions o = options;
          const bool keep =
              churn && r.sampled && samples[c].size() < kMaxSamplesPerClient;
          if (keep) o.snapshot = answerer->PinSnapshot();
          const int64_t t0 = NowNs();
          const Outcome out =
              args.trace
                  ? TracedAnswer(env, r.text, kStrategy, o, client_sink)
                  : PlainAnswer(answerer, r.text, kStrategy, o);
          latencies[c].push_back(static_cast<double>(NowNs() - t0) / 1e6);
          ++attempted_by[c];
          if (!out.ok) {
            ++failed_by[c];
          } else if (keep) {
            samples[c].push_back({r.text, o.snapshot, out.digest});
          } else if (!churn && reference.at(r.key) != out.digest) {
            ++failed_by[c];
          }
        }
      });
    }
    const int64_t slice_ns =
        static_cast<int64_t>(args.seconds * 1e9 / kSlices);
    while (NowNs() - slice_start < slice_ns) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    for (std::thread& t : threads) t.join();
    const double slice_s = static_cast<double>(NowNs() - slice_start) / 1e9;
    window_s += slice_s;
    if (writer.joinable()) {
      writer.join();  // drains its edges
      // Every slice starts from one compacted store, not from whatever
      // overlay the last slice's timing left behind.
      answerer->versions().Compact();
    }
    std::vector<double> slice_latency;
    for (int c = 0; c < clients; ++c) {
      slice_latency.insert(slice_latency.end(),
                           latencies[c].begin() + first[c],
                           latencies[c].end());
    }
    // Speed probes at each pause scale the slice and the suite round.
    const double after_slice = ProbeMs();
    const double slice_scale = Scale(probe, after_slice);
    slice_scales.push_back(slice_scale);
    scaled_window_s += slice_s * slice_scale;
    slice_latency_ms.push_back(std::move(slice_latency));

    // One suite round (cache off): every strategy over the 7 shapes with
    // their rank-0 constants, checked against Sat.
    std::vector<double> round_ms;
    for (size_t si = 0; si < SuiteStrategies().size(); ++si) {
      const api::Strategy s = SuiteStrategies()[si];
      const int64_t start = NowNs();
      for (size_t shape = 0; shape < Shapes().size(); ++shape) {
        const std::string text =
            RenameVars(ShapeText(shape, 0),
                       "_" + std::to_string(suite_rng.Uniform(1000000)));
        const Outcome o =
            args.trace ? TracedAnswer(env, text, s, suite_options, &sink)
                       : PlainAnswer(answerer, text, s, suite_options);
        ++attempted;
        if (!o.ok ||
            o.digest !=
                reference.at(static_cast<int>(shape) * kShapeStride)) {
          ++failed;
        }
      }
      round_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    }
    probe = ProbeMs();
    for (size_t si = 0; si < round_ms.size(); ++si) {
      pass_ms[si].push_back(round_ms[si] * Scale(after_slice, probe));
    }
  }
  const rdfref::engine::ViewCacheStats cache_delta =
      CacheDelta(cache_before, cache_stats());
  if (churn) answerer->versions().StopBackgroundCompaction();

  std::vector<double> latency_ms;
  for (int c = 0; c < clients; ++c) {
    attempted += attempted_by[c];
    failed += failed_by[c];
    latency_ms.insert(latency_ms.end(), latencies[c].begin(),
                      latencies[c].end());
  }

  // Churn: recompute every sample against its own pin, cache off.
  api::AnswerOptions cold = options;
  cold.use_view_cache = false;
  std::vector<double> warm_ms, cold_ms;
  int sample_index = 0;
  for (std::vector<Sample>& client_samples : samples) {
    for (Sample& s : client_samples) {
      if (sample_index++ == args.corrupt_digest) s.digest ^= 1;
      api::AnswerOptions o = cold;
      o.snapshot = s.pin;
      const Outcome out = PlainAnswer(answerer, s.text, kStrategy, o);
      if (!out.ok || out.digest != s.digest) ++failed;
      if (args.trace) {
        // ratio.warm_vs_cold: the same pinned request, cache on vs off.
        Request r{s.text, kStrategy, o, s.digest};
        api::AnswerOptions warm = o;
        warm.use_view_cache = true;
        Request w{s.text, kStrategy, warm, s.digest};
        (void)PassMs(env, {w}, &failed);  // install if the view was dropped
        warm_ms.push_back(PassMs(env, {w}, &failed));
        cold_ms.push_back(PassMs(env, {r}, &failed));
      }
    }
  }

  std::vector<double> write_ms;
  for (size_t i = 0; i < slice_write_ms.size(); ++i) {
    for (double ms : slice_write_ms[i]) write_ms.push_back(ms * slice_scales[i]);
  }

  Report report;
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    uint64_t window_requests = 0;
    for (uint64_t a : attempted_by) window_requests += a;
    // Pooled: a slice holds few of the heavy requests that set throughput.
    report.Add("qps", static_cast<double>(window_requests) / scaled_window_s,
               "1/s");
    report.Add("latency_p50_ms",
               Median(PerSlice(slice_latency_ms, 50, slice_scales)), "ms");
    report.Add("latency_p99_ms",
               Median(PerSlice(slice_latency_ms, 99, slice_scales)), "ms");
    for (size_t si = 0; si < SuiteStrategies().size(); ++si) {
      report.Add(std::string("suite_ms.") + StrategyKey(SuiteStrategies()[si]),
                 Median(pass_ms[si]), "ms");
    }
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("# %llu requests in %.2f s, raw latency p25/p50/p75/p90 "
                "%.3f/%.3f/%.3f/%.3f ms, %zu writes (p99 %.3f ms, at most "
                "%.3f ms late, %llu compactions), %zu samples rechecked, "
                "hit rate %.3f, error_rate %.6f\n",
                static_cast<unsigned long long>(window_requests), window_s,
                Percentile(latency_ms, 25), Percentile(latency_ms, 50),
                Percentile(latency_ms, 75), Percentile(latency_ms, 90),
                write_ms.size(), Percentile(write_ms, 99),
                writer_stats.late_ms,
                static_cast<unsigned long long>(writer_stats.compactions),
                static_cast<size_t>(sample_index), cache_delta.hit_rate(),
                static_cast<double>(failed) / static_cast<double>(attempted));
    return report.Print(attempted, failed);
  }

  LayerExtras x;
  x.generate_ms = setup.generate_ms;
  x.load_ms = setup.load_ms;
  x.view_selection_ms = setup.view_selection_ms;
  x.saturation_ms = answerer->saturation_millis();
  x.closure_ms = setup.closure_ms;
  x.cache = cache_delta;
  x.write_p99_ms = Percentile(write_ms, 99);
  if (writer_stats.writes > 0) {
    x.storage_runs = writer_stats.runs_sum /
                     static_cast<double>(writer_stats.writes);
  }
  x.storage_compactions = static_cast<double>(writer_stats.compactions);

  // The in-run ratios of lubm-analyst are not measured here (they read 0).
  if (churn) {
    x.warm_vs_cold = Median(cold_ms) > 0 ? Median(warm_ms) / Median(cold_ms)
                                         : 0.0;
  }
  std::vector<Request> calibration;
  for (size_t shape = 0; shape < Shapes().size(); ++shape) {
    Request r;
    r.text = ShapeText(shape, 0);
    r.strategy = kStrategy;
    r.options.use_view_cache = false;
    r.reference = reference.at(static_cast<int>(shape) * kShapeStride);
    calibration.push_back(std::move(r));
  }
  TraceEnv calibration_env = env;
  calibration_env.cache = nullptr;
  x.calibration = Calibrate(calibration_env, calibration, 5, &failed);
  if (own_cache != nullptr) answerer->versions().SetWriteObserver(nullptr);
  x.error_rate = static_cast<double>(failed) / static_cast<double>(attempted);

  for (size_t i = 1; i < sinks.size(); ++i) sink.Merge(sinks[i]);
  ReportLayers(sink, &report);
  ReportExtras(x, &report);
  WriteSpans(sink, args.spans_path);
  return report.Print(attempted, failed);
}

}  // namespace rdfbench
