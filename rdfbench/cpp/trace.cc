#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "cost/cost_model.h"
#include "engine/evaluator.h"
#include "query/cover.h"
#include "query/sparql_parser.h"
#include "reformulation/reformulator.h"
#include "storage/version_set.h"

namespace rdfbench {

namespace rdf = rdfref::rdf;
namespace storage = rdfref::storage;
namespace engine = rdfref::engine;
namespace query = rdfref::query;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest:
      return "request";
    case Layer::kParse:
      return "query.parse";
    case Layer::kReformulate:
      return "reformulation";
    case Layer::kGcov:
      return "optimizer.gcov";
    case Layer::kPin:
      return "storage.pin";
    case Layer::kEval:
      return "engine.eval";
    case Layer::kSatStore:
      return "reasoner.sat_store";
    case Layer::kDatalog:
      return "datalog.answer";
    case Layer::kInsert:
      return "storage.insert";
    case Layer::kRemove:
      return "storage.remove";
  }
  return "unknown";
}

// --- CountingSource -------------------------------------------------------

void CountingSource::Count(int64_t start_ns, size_t rows) const {
  c_->probes.fetch_add(1, std::memory_order_relaxed);
  c_->rows.fetch_add(rows, std::memory_order_relaxed);
  c_->scan_ns.fetch_add(NowNs() - start_ns, std::memory_order_relaxed);
}

void CountingSource::Scan(
    rdf::TermId s, rdf::TermId p, rdf::TermId o,
    const std::function<void(const rdf::Triple&)>& fn) const {  // rdfref-check: allow(std-function)
  const int64_t start = NowNs();
  size_t rows = 0;
  inner_->Scan(s, p, o, [&](const rdf::Triple& t) {
    ++rows;
    fn(t);
  });
  Count(start, rows);
}

bool CountingSource::TryGetRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                 std::span<const rdf::Triple>* out) const {
  const int64_t start = NowNs();
  const bool ok = inner_->TryGetRange(s, p, o, out);
  Count(start, ok ? out->size() : 0);
  return ok;
}

bool CountingSource::TryGetRangeHinted(rdf::TermId s, rdf::TermId p,
                                       rdf::TermId o,
                                       std::span<const rdf::Triple>* out,
                                       storage::RangeHint* hint) const {
  const int64_t start = NowNs();
  const bool ok = inner_->TryGetRangeHinted(s, p, o, out, hint);
  Count(start, ok ? out->size() : 0);
  return ok;
}

void CountingSource::ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                              std::vector<rdf::Triple>* out) const {
  const int64_t start = NowNs();
  inner_->ScanInto(s, p, o, out);
  Count(start, out->size());
}

size_t CountingSource::CountMatches(rdf::TermId s, rdf::TermId p,
                                    rdf::TermId o) const {
  const int64_t start = NowNs();
  const size_t n = inner_->CountMatches(s, p, o);
  Count(start, 0);
  return n;
}

bool CountingSource::TryGetIntervalRange(
    rdf::TermId s, rdf::TermId p, rdf::TermId o, int range_pos,
    rdf::TermId hi, std::span<const rdf::Triple>* out) const {
  const int64_t start = NowNs();
  const bool ok = inner_->TryGetIntervalRange(s, p, o, range_pos, hi, out);
  Count(start, ok ? out->size() : 0);
  return ok;
}

void CountingSource::ScanIntervalInto(rdf::TermId s, rdf::TermId p,
                                      rdf::TermId o, int range_pos,
                                      rdf::TermId hi,
                                      std::vector<rdf::Triple>* out) const {
  const int64_t start = NowNs();
  inner_->ScanIntervalInto(s, p, o, range_pos, hi, out);
  Count(start, out->size());
}

size_t CountingSource::CountIntervalMatches(rdf::TermId s, rdf::TermId p,
                                            rdf::TermId o, int range_pos,
                                            rdf::TermId hi) const {
  const int64_t start = NowNs();
  const size_t n = inner_->CountIntervalMatches(s, p, o, range_pos, hi);
  Count(start, 0);
  return n;
}

// --- TraceSink ------------------------------------------------------------

void TraceSink::Add(Layer layer, int64_t start_ns, int64_t end_ns) {
  spans.push_back({next_request, thread, layer, start_ns, end_ns});
  const int64_t d = end_ns - start_ns;
  layer_ns[static_cast<int>(layer)] += d;
  if (layer == Layer::kRequest) {
    request_ns += d;
  } else if (layer != Layer::kInsert && layer != Layer::kRemove) {
    covered_ns += d;
  }
}

void TraceSink::Merge(const TraceSink& o) {
  spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  requests += o.requests;
  request_ns += o.request_ns;
  covered_ns += o.covered_ns;
  for (int i = 0; i < kNumLayers; ++i) layer_ns[i] += o.layer_ns[i];
  ucq_members += o.ucq_members;
  interval_atoms += o.interval_atoms;
  gcov_calls += o.gcov_calls;
  covers_explored += o.covers_explored;
  fragment_rows += o.fragment_rows;
  rows_out += o.rows_out;
  probes += o.probes;
  rows_scanned += o.rows_scanned;
  scan_ns += o.scan_ns;
  join_ns += o.join_ns;
  eval_cpu_ns += o.eval_cpu_ns;
  eval_wall_ns += o.eval_wall_ns;
  dat_calls += o.dat_calls;
  dat_eval_ns += o.dat_eval_ns;
  inserts += o.inserts;
  removes += o.removes;
  qerrors.insert(qerrors.end(), o.qerrors.begin(), o.qerrors.end());
}

// --- Traced pipeline ------------------------------------------------------

namespace {

double QError(double estimate, double actual) {
  const double e = std::max(estimate, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

void CountUcq(const query::Ucq& ucq, TraceSink* sink) {
  sink->ucq_members += ucq.size();
  for (const query::Cq& cq : ucq.members()) {
    for (const query::Atom& atom : cq.body()) {
      if (atom.has_range()) ++sink->interval_atoms;
    }
  }
}

// Times one call into a layer as a span of the current request.
template <typename Fn>
auto Timed(TraceSink* sink, Layer layer, Fn&& fn) {
  const int64_t start = NowNs();
  auto result = fn();
  sink->Add(layer, start, NowNs());
  return result;
}

// The evaluation span, with CPU/wall accounting and probe counters folded
// into the sink. With threads > 1 the pool threads work for this request,
// so CPU is taken process-wide; otherwise the calling thread's own CPU.
template <typename Fn>
auto TimedEval(TraceSink* sink, int threads, ProbeCounters* counters,
               Fn&& fn) {
  const bool process = threads != 1;
  const int64_t cpu0 = process ? ProcessCpuNs() : ThreadCpuNs();
  const int64_t start = NowNs();
  auto result = fn();
  const int64_t end = NowNs();
  const int64_t cpu1 = process ? ProcessCpuNs() : ThreadCpuNs();
  sink->Add(Layer::kEval, start, end);
  sink->eval_wall_ns += end - start;
  sink->eval_cpu_ns += cpu1 - cpu0;
  sink->probes += counters->probes.load();
  sink->rows_scanned += counters->rows.load();
  sink->scan_ns += counters->scan_ns.load();
  return result;
}

// The evaluator's source: the counting wrapper, or the layer's own source
// when the env asks for spans only.
const storage::TripleSource* Source(const TraceEnv& env,
                                    const storage::TripleSource* inner,
                                    const CountingSource* counting) {
  return env.count_probes ? counting : inner;
}

}  // namespace

Outcome PlainAnswer(api::QueryAnswerer* answerer, const std::string& text,
                    api::Strategy strategy,
                    const api::AnswerOptions& options) {
  Outcome out;
  rdfref::Result<query::Cq> q = query::ParseSparql(text, &answerer->dict());
  if (!q.ok()) return out;
  rdfref::Result<engine::Table> table =
      answerer->Answer(*q, strategy, nullptr, options);
  if (!table.ok()) return out;
  out.ok = true;
  out.digest = Digest(*table);
  return out;
}

Outcome TracedAnswer(const TraceEnv& env, const std::string& text,
                     api::Strategy strategy, const api::AnswerOptions& options,
                     TraceSink* sink) {
  api::QueryAnswerer* answerer = env.answerer;
  Outcome out;
  const int64_t request_start = NowNs();
  rdfref::Result<query::Cq> parsed = Timed(sink, Layer::kParse, [&] {
    return query::ParseSparql(text, &answerer->dict());
  });
  if (!parsed.ok()) return out;
  const query::Cq& q = *parsed;

  const int threads = options.threads;
  ProbeCounters counters;
  const bool cached = env.cache != nullptr && options.use_view_cache;
  // Fragment estimates are taken after the request span closes.
  std::vector<query::Ucq> estimate_ucqs;
  std::vector<uint64_t> actual_rows;
  rdfref::Result<engine::Table> table = engine::Table();

  {
    rdfref::reformulation::Reformulator ref(&answerer->schema(), options.reform,
                             &answerer->dict());
    switch (strategy) {
      case api::Strategy::kSaturation: {
        const rdfref::storage::Store* store = Timed(
            sink, Layer::kSatStore, [&] { return &answerer->sat_store(); });
        CountingSource source(store, &counters);
        engine::Evaluator evaluator(Source(env, store, &source));
        table = TimedEval(sink, 1, &counters,
                          [&] { return evaluator.EvaluateCq(q); });
        break;
      }
      case api::Strategy::kRefUcq: {
        rdfref::Result<query::Ucq> ucq = Timed(
            sink, Layer::kReformulate, [&] { return ref.Reformulate(q); });
        if (!ucq.ok()) return out;
        storage::SnapshotPtr snap = Timed(sink, Layer::kPin, [&] {
          return options.snapshot != nullptr
                     ? options.snapshot
                     : answerer->versions().snapshot();
        });
        CountingSource source(snap.get(), &counters);
        engine::Evaluator evaluator(Source(env, snap.get(), &source),
                                    threads);
        if (cached) evaluator.set_view_cache(env.cache, snap->epoch());
        table = TimedEval(sink, threads, &counters, [&] {
          return evaluator.EvaluateUcqView(q, *ucq, options.deadline);
        });
        CountUcq(*ucq, sink);
        if (table.ok()) {
          sink->fragment_rows += table->NumRows();
          actual_rows.push_back(table->NumRows());
          estimate_ucqs.push_back(std::move(*ucq));
        }
        break;
      }
      case api::Strategy::kRefScq:
      case api::Strategy::kRefGcov: {
        query::Cover cover = query::Cover::Singletons(q.body().size());
        if (strategy == api::Strategy::kRefGcov) {
          rdfref::optimizer::GcovTrace gcov_trace;
          rdfref::Result<query::Cover> chosen =
              Timed(sink, Layer::kGcov, [&] {
                rdfref::cost::CostModel cost_model(
                    &answerer->ref_store().stats());
                rdfref::optimizer::CoverOptimizer optimizer(
                    &ref, &cost_model,
                    env.hints != nullptr && !env.hints->empty() ? env.hints
                                                                : nullptr);
                return optimizer.Greedy(q, &gcov_trace);
              });
          if (!chosen.ok()) return out;
          cover = std::move(*chosen);
          ++sink->gcov_calls;
          sink->covers_explored += gcov_trace.explored.size();
        }
        std::vector<query::Cq> fragment_queries;
        std::vector<query::Ucq> fragment_ucqs;
        const bool reformulated = Timed(sink, Layer::kReformulate, [&] {
          if (!cover.Validate(q).ok()) return false;
          fragment_queries = cover.FragmentQueries(q);
          for (const query::Cq& fq : fragment_queries) {
            rdfref::Result<query::Ucq> ucq = ref.Reformulate(fq);
            if (!ucq.ok()) return false;
            fragment_ucqs.push_back(std::move(*ucq));
          }
          return true;
        });
        if (!reformulated) return out;
        storage::SnapshotPtr snap = Timed(sink, Layer::kPin, [&] {
          return options.snapshot != nullptr
                     ? options.snapshot
                     : answerer->versions().snapshot();
        });
        CountingSource source(snap.get(), &counters);
        engine::Evaluator evaluator(Source(env, snap.get(), &source),
                                    threads);
        if (cached) evaluator.set_view_cache(env.cache, snap->epoch());
        engine::JucqProfile profile;
        table = TimedEval(sink, threads, &counters, [&] {
          return evaluator.EvaluateJucq(q, fragment_queries, fragment_ucqs,
                                        options.deadline, &profile);
        });
        sink->join_ns += static_cast<int64_t>(profile.join_millis * 1e6);
        for (const query::Ucq& ucq : fragment_ucqs) CountUcq(ucq, sink);
        if (table.ok() && profile.fragments.size() == fragment_ucqs.size()) {
          for (size_t i = 0; i < fragment_ucqs.size(); ++i) {
            sink->fragment_rows += profile.fragments[i].result_rows;
            actual_rows.push_back(profile.fragments[i].result_rows);
            estimate_ucqs.push_back(std::move(fragment_ucqs[i]));
          }
        }
        break;
      }
      case api::Strategy::kDatalog: {
        api::AnswerProfile profile;
        table = Timed(sink, Layer::kDatalog, [&] {
          return answerer->Answer(q, strategy, &profile, options);
        });
        ++sink->dat_calls;
        sink->dat_eval_ns += static_cast<int64_t>(profile.eval_millis * 1e6);
        break;
      }
      default:
        return out;
    }
  }
  sink->Add(Layer::kRequest, request_start, NowNs());
  ++sink->requests;
  ++sink->next_request;
  if (!table.ok()) return out;
  sink->rows_out += table->NumRows();

  rdfref::cost::CostModel cost_model(&answerer->ref_store().stats());
  for (size_t i = 0; i < estimate_ucqs.size(); ++i) {
    sink->qerrors.push_back(
        QError(cost_model.EstimateUcqRows(estimate_ucqs[i]),
               static_cast<double>(actual_rows[i])));
  }
  out.ok = true;
  out.digest = Digest(*table);
  return out;
}

Calibration Calibrate(const TraceEnv& env, const std::vector<Request>& requests,
                      int reps, uint64_t* failed) {
  TraceEnv light = env;
  light.count_probes = false;
  std::vector<double> overhead_us;
  int64_t plain_ns = 0;
  int64_t traced_ns = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const Request& r : requests) {
      // Plain: parse, then Answer (timed on its own).
      const int64_t t0 = NowNs();
      rdfref::Result<query::Cq> q =
          query::ParseSparql(r.text, &env.answerer->dict());
      const int64_t t1 = NowNs();
      rdfref::Result<engine::Table> table =
          q.ok() ? env.answerer->Answer(*q, r.strategy, nullptr, r.options)
                 : rdfref::Result<engine::Table>(q.status());
      const int64_t t2 = NowNs();
      if (!table.ok() || Digest(*table) != r.reference) ++*failed;
      plain_ns += t2 - t0;

      TraceSink discard;
      const Outcome lo = TracedAnswer(light, r.text, r.strategy, r.options,
                                      &discard);
      if (!lo.ok || lo.digest != r.reference) ++*failed;
      const int64_t layers =
          discard.covered_ns - discard.layer_ns[static_cast<int>(Layer::kParse)];
      overhead_us.push_back(static_cast<double>((t2 - t1) - layers) / 1e3);

      TraceSink traced;
      const int64_t t3 = NowNs();
      const Outcome to = TracedAnswer(env, r.text, r.strategy, r.options,
                                      &traced);
      traced_ns += NowNs() - t3;
      if (!to.ok || to.digest != r.reference) ++*failed;
    }
  }
  Calibration c;
  c.api_overhead_us = Median(overhead_us);
  c.trace_overhead_frac =
      plain_ns > 0 ? static_cast<double>(traced_ns) /
                             static_cast<double>(plain_ns) -
                         1.0
                   : 0.0;
  return c;
}

double PassMs(const TraceEnv& env, const std::vector<Request>& requests,
              uint64_t* failed) {
  TraceSink discard;
  const int64_t start = NowNs();
  for (const Request& r : requests) {
    const Outcome o = TracedAnswer(env, r.text, r.strategy, r.options,
                                   &discard);
    if (!o.ok || o.digest != r.reference) ++*failed;
  }
  return static_cast<double>(NowNs() - start) / 1e6;
}

void TracedWrite(storage::VersionSet* versions, const rdf::Triple& t,
                 bool insert, TraceSink* sink) {
  const int64_t start = NowNs();
  if (insert) {
    versions->Insert(t);
  } else {
    versions->Remove(t);
  }
  sink->spans.push_back({0, sink->thread,
                         insert ? Layer::kInsert : Layer::kRemove, start,
                         NowNs()});
  sink->layer_ns[static_cast<int>(insert ? Layer::kInsert
                                         : Layer::kRemove)] +=
      sink->spans.back().end_ns - start;
  ++(insert ? sink->inserts : sink->removes);
}

void ReportLayers(const TraceSink& s, Report* r) {
  const double req = std::max<double>(1.0, static_cast<double>(s.requests));
  auto per_req_us = [&](int64_t ns) { return static_cast<double>(ns) / 1e3 / req; };
  auto layer = [&](Layer l) { return s.layer_ns[static_cast<int>(l)]; };
  r->Add("query.parse_us", per_req_us(layer(Layer::kParse)), "us");
  r->Add("reformulation.us", per_req_us(layer(Layer::kReformulate)), "us");
  r->Add("reformulation.ucq_members", s.ucq_members / req, "count");
  r->Add("reformulation.interval_atoms", s.interval_atoms / req, "count");
  r->Add("optimizer.gcov_us", per_req_us(layer(Layer::kGcov)), "us");
  r->Add("optimizer.covers_explored",
         s.gcov_calls > 0 ? static_cast<double>(s.covers_explored) /
                                static_cast<double>(s.gcov_calls)
                          : 0.0,
         "count");
  r->Add("cost.fragment_qerror_p50", Percentile(s.qerrors, 50), "ratio");
  r->Add("cost.fragment_qerror_p90", Percentile(s.qerrors, 90), "ratio");
  r->Add("engine.eval_us", per_req_us(layer(Layer::kEval)), "us");
  r->Add("engine.join_us", per_req_us(s.join_ns), "us");
  r->Add("engine.fragment_rows", s.fragment_rows / req, "count");
  r->Add("engine.rows_out", s.rows_out / req, "count");
  r->Add("engine.cpu_per_wall",
         s.eval_wall_ns > 0 ? static_cast<double>(s.eval_cpu_ns) /
                                  static_cast<double>(s.eval_wall_ns)
                            : 0.0,
         "ratio");
  r->Add("storage.probes", s.probes / req, "count");
  r->Add("storage.rows_scanned", s.rows_scanned / req, "count");
  r->Add("storage.rows_scanned_per_row_out",
         static_cast<double>(s.rows_scanned) /
             std::max<double>(1.0, static_cast<double>(s.rows_out)),
         "ratio");
  r->Add("storage.scan_us", per_req_us(s.scan_ns), "us");
  r->Add("storage.pin_us", per_req_us(layer(Layer::kPin)), "us");
  r->Add("storage.insert_us",
         s.inserts > 0 ? static_cast<double>(layer(Layer::kInsert)) / 1e3 /
                             static_cast<double>(s.inserts)
                       : 0.0,
         "us");
  r->Add("storage.remove_us",
         s.removes > 0 ? static_cast<double>(layer(Layer::kRemove)) / 1e3 /
                             static_cast<double>(s.removes)
                       : 0.0,
         "us");
  r->Add("datalog.eval_us",
         s.dat_calls > 0 ? static_cast<double>(s.dat_eval_ns) / 1e3 /
                               static_cast<double>(s.dat_calls)
                         : 0.0,
         "us");
  r->Add("trace.coverage",
         s.request_ns > 0 ? static_cast<double>(s.covered_ns) /
                                static_cast<double>(s.request_ns)
                          : 0.0,
         "ratio");
}

void WriteSpans(const TraceSink& sink, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "request,thread,layer,start_ns,end_ns\n");
  for (const Span& s : sink.spans) {
    std::fprintf(f, "%u,%u,%s,%lld,%lld\n", s.request, s.thread,
                 LayerName(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

}  // namespace rdfbench
