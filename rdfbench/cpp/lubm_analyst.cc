// lubm-analyst: one analyst runs every strategy on one query at a time —
// the paper's own experiment. Rounds of the 10-query LUBM suite plus
// Example 1 under Sat, Ref-UCQ, Ref-SCQ, Ref-GCov and Dat, one closed-loop
// client, AnswerOptions.threads = nproc, view cache off.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/lubm.h"
#include "rdf/graph.h"
#include "storage/version_set.h"
#include "workloads.h"

namespace rdfbench {

namespace {

namespace rdf = rdfref::rdf;
using rdfref::datagen::Lubm;

constexpr const char* kPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

struct SuiteQuery {
  const char* name;
  std::string text;
};

// The LUBM-flavoured suite of the paper's strategy comparison, plus the
// paper's Example 1 (last). Constants name University1, which the compact
// degree pool keeps non-empty at this scale.
std::vector<SuiteQuery> Suite() {
  const std::string u1 = "<" + Lubm::UniversityUri(1) + ">";
  std::vector<SuiteQuery> suite = {
      {"Q1-persons", "SELECT ?x WHERE { ?x a ub:Person . }"},
      {"Q2-professors",
       "SELECT ?x ?d WHERE { ?x a ub:Professor . ?x ub:worksFor ?d . }"},
      {"Q3-students",
       "SELECT ?x ?c WHERE { ?x a ub:Student . ?x ub:takesCourse ?c . }"},
      {"Q4-advisors",
       "SELECT ?x ?a WHERE { ?x ub:advisor ?a . ?a ub:headOf ?d . }"},
      {"Q5-degrees", "SELECT ?x WHERE { ?x ub:degreeFrom " + u1 + " . }"},
      {"Q6-members",
       "SELECT ?x ?u ?z WHERE { ?x rdf:type ?u . ?x ub:memberOf ?z . }"},
      {"Q7-typed-degrees",
       "SELECT ?x ?u WHERE { ?x rdf:type ?u . ?x ub:mastersDegreeFrom " + u1 +
           " . }"},
      {"Q8-org-units",
       "SELECT ?g ?d WHERE { ?g a ub:Organization . "
       "?g ub:subOrganizationOf ?d . }"},
      {"Q9-teachers",
       "SELECT ?f ?c ?s WHERE { ?f ub:teacherOf ?c . "
       "?s ub:takesCourse ?c . ?s a ub:Student . }"},
      {"Q10-chain",
       "SELECT ?s ?a ?d WHERE { ?s ub:advisor ?a . "
       "?a ub:worksFor ?d . ?d ub:subOrganizationOf ?u . }"},
      {"Example1",
       "SELECT ?x ?u ?y ?v ?z WHERE { ?x rdf:type ?u . ?y rdf:type ?v . "
       "?x ub:mastersDegreeFrom " + u1 + " . ?y ub:doctoralDegreeFrom " +
           u1 + " . ?x ub:memberOf ?z . ?y ub:memberOf ?z . }"},
  };
  for (SuiteQuery& q : suite) q.text = kPrefix + q.text;
  return suite;
}

constexpr int kExample1 = 10;
constexpr int kQ6 = 5;

// One strategy pass of a round: the suite in a seeded order, every variable
// renamed with a seeded suffix.
struct Pass {
  api::Strategy strategy;
  std::vector<std::pair<int, std::string>> requests;  // (query, text)
};

class PassGenerator {
 public:
  PassGenerator(const std::vector<SuiteQuery>* suite, uint64_t seed)
      : suite_(suite), rng_(seed) {}

  Pass Next() {
    const auto& strategies = SuiteStrategies();
    Pass pass{strategies[index_++ % strategies.size()], {}};
    std::vector<int> order;
    for (int k = 0; k < static_cast<int>(suite_->size()); ++k) {
      // Example 1's encoded UCQ has tens of thousands of CQs.
      if (k == kExample1 && pass.strategy == api::Strategy::kRefUcq) continue;
      order.push_back(k);
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.Uniform(i)]);
    }
    for (int k : order) {
      pass.requests.emplace_back(
          k, RenameVars((*suite_)[k].text,
                        "_" + std::to_string(rng_.Uniform(1000000))));
    }
    return pass;
  }

 private:
  const std::vector<SuiteQuery>* suite_;
  Rng rng_;
  size_t index_ = 0;
};

struct Setup {
  std::unique_ptr<api::QueryAnswerer> answerer;
  double total_s = 0, generate_ms = 0, load_ms = 0, closure_ms = 0;
};

Setup BuildSetup(bool tiny) {
  Setup s;
  const int64_t t0 = NowNs();
  rdfref::datagen::LubmConfig config;
  config.universities = tiny ? 1 : 10;
  config.scale = tiny ? 0.25 : 1.0;
  config.referenced_universities = 10;
  rdf::Graph graph;
  Lubm::Generate(config, &graph);
  const int64_t t1 = NowNs();
  s.answerer = std::make_unique<api::QueryAnswerer>(std::move(graph));
  const int64_t t2 = NowNs();
  s.answerer->sat_store();
  const int64_t t3 = NowNs();
  // The Datalog closure runs inside the first Dat answer.
  (void)PlainAnswer(s.answerer.get(),
                    std::string(kPrefix) +
                        "SELECT ?x WHERE { ?x a ub:Course . }",
                    api::Strategy::kDatalog, {});
  const int64_t t4 = NowNs();
  s.generate_ms = static_cast<double>(t1 - t0) / 1e6;
  s.load_ms = static_cast<double>(t2 - t1) / 1e6;
  s.closure_ms = static_cast<double>(t4 - t3) / 1e6;
  s.total_s = static_cast<double>(t4 - t0) / 1e9;
  return s;
}

}  // namespace

int RunLubmAnalyst(const Args& args) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<double> setup_s, raw_setup_s;
  Setup setup;
  const int setups = args.tiny ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    setup = Setup{};  // free the previous answerer before building anew
    const double probe = ProbeMs();
    setup = BuildSetup(args.tiny);
    raw_setup_s.push_back(setup.total_s);
    setup_s.push_back(setup.total_s * Scale(probe, ProbeMs()));
  }
  api::QueryAnswerer* answerer = setup.answerer.get();
  std::printf("# lubm-analyst: %zu explicit triples, setup %.3f s raw, "
              "%.3f s scaled (median of %d)\n",
              answerer->num_explicit_triples(), Median(raw_setup_s),
              Median(setup_s), setups);

  // Reference digests from Sat, off the clock.
  const std::vector<SuiteQuery> suite = Suite();
  std::vector<uint64_t> reference(suite.size());
  for (size_t k = 0; k < suite.size(); ++k) {
    const Outcome o = PlainAnswer(answerer, suite[k].text,
                                  api::Strategy::kSaturation, {});
    if (!o.ok) {
      std::fprintf(stderr, "reference answer failed for %s\n", suite[k].name);
      return 1;
    }
    reference[k] = o.digest;
  }
  if (args.corrupt_digest >= 0 &&
      args.corrupt_digest < static_cast<int>(reference.size())) {
    reference[args.corrupt_digest] ^= 1;
  }

  // The request sequence is a pure function of the seed: hash its prefix.
  {
    PassGenerator gen(&suite, args.seed);
    uint64_t h = Fnv("");
    for (int i = 0; i < 10; ++i) {
      const Pass pass = gen.Next();
      h = Fnv(api::StrategyName(pass.strategy), h);
      for (const auto& [k, text] : pass.requests) h = Fnv(text, h);
    }
    std::printf("{\"request_hash\": {\"client0\": \"%016llx\"}}\n",
                static_cast<unsigned long long>(h));
  }

  api::AnswerOptions options;
  options.threads = nproc;
  TraceEnv env;
  env.answerer = answerer;
  TraceSink sink;
  auto execute = [&](const std::string& text, api::Strategy s,
                     const api::AnswerOptions& o) {
    return args.trace ? TracedAnswer(env, text, s, o, &sink)
                      : PlainAnswer(answerer, text, s, o);
  };

  uint64_t attempted = 0, failed = 0;
  // Every pass is scaled by the speed probes taken just before and after
  // it; request latencies by their pass's scale.
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> pass_ms(SuiteStrategies().size());
  std::vector<double> round_qps;
  double raw_ms = 0.0, scaled_ms = 0.0;
  PassGenerator gen(&suite, args.seed);
  const int64_t window_start = NowNs();
  const int64_t window_ns = static_cast<int64_t>(args.seconds * 1e9);
  double probe = ProbeMs();
  do {
    double round_ms = 0.0;
    uint64_t round_requests = 0;
    for (size_t si = 0; si < SuiteStrategies().size(); ++si) {
      const Pass pass = gen.Next();
      std::vector<double> pass_latency_ms;
      const int64_t pass_start = NowNs();
      for (const auto& [k, text] : pass.requests) {
        const int64_t t0 = NowNs();
        const Outcome o = execute(text, pass.strategy, options);
        pass_latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        ++attempted;
        if (!o.ok || o.digest != reference[k]) ++failed;
      }
      const double ms = static_cast<double>(NowNs() - pass_start) / 1e6;
      const double after = ProbeMs();
      const double scale = Scale(probe, after);
      probe = after;
      raw_ms += ms;
      scaled_ms += ms * scale;
      pass_ms[si].push_back(ms * scale);
      for (double l : pass_latency_ms) latency_ms.push_back(l * scale);
      round_ms += ms * scale;
      round_requests += pass.requests.size();
    }
    round_qps.push_back(static_cast<double>(round_requests) * 1e3 / round_ms);
  } while (NowNs() - window_start < window_ns);

  Report report;
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("qps", Median(round_qps), "1/s");
    report.Add("latency_p50_ms", Percentile(latency_ms, 50), "ms");
    report.Add("latency_p99_ms", Percentile(latency_ms, 99), "ms");
    for (size_t si = 0; si < SuiteStrategies().size(); ++si) {
      report.Add(std::string("suite_ms.") + StrategyKey(SuiteStrategies()[si]),
                 Median(pass_ms[si]), "ms");
    }
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("# %llu requests in %zu rounds, %.2f s raw pass time, "
                "%.2f s scaled, error_rate %.6f\n",
                static_cast<unsigned long long>(attempted), pass_ms[0].size(),
                raw_ms / 1e3, scaled_ms / 1e3,
                static_cast<double>(failed) / static_cast<double>(attempted));
    return report.Print(attempted, failed);
  }

  // Traced run: in-run ratios and the calibration pass, off the window.
  LayerExtras x;
  x.generate_ms = setup.generate_ms;
  x.load_ms = setup.load_ms;
  x.saturation_ms = answerer->saturation_millis();
  x.closure_ms = setup.closure_ms;

  auto requests_of = [&](api::Strategy s, int threads, bool encoding,
                         std::vector<int> keys) {
    std::vector<Request> out;
    for (int k : keys) {
      Request r;
      r.text = suite[k].text;
      r.strategy = s;
      r.options.threads = threads;
      r.options.reform.use_encoding = encoding;
      r.reference = reference[k];
      out.push_back(std::move(r));
    }
    return out;
  };
  std::vector<int> all_but_example1;
  for (int k = 0; k < kExample1; ++k) all_but_example1.push_back(k);
  std::vector<int> all_keys = all_but_example1;
  all_keys.push_back(kExample1);

  const auto q6_encoded =
      requests_of(api::Strategy::kRefUcq, nproc, true, {kQ6});
  const auto q6_classic =
      requests_of(api::Strategy::kRefUcq, nproc, false, {kQ6});
  x.encoded_vs_classic = AlternatingRatio(
      5, [&] { return PassMs(env, q6_encoded, &failed); },
      [&] { return PassMs(env, q6_classic, &failed); });
  const auto ucq_n =
      requests_of(api::Strategy::kRefUcq, nproc, true, all_but_example1);
  const auto ucq_1 =
      requests_of(api::Strategy::kRefUcq, 1, true, all_but_example1);
  x.threads_vs_1 = AlternatingRatio(
      3, [&] { return PassMs(env, ucq_n, &failed); },
      [&] { return PassMs(env, ucq_1, &failed); });
  std::vector<Request> calibration;
  for (api::Strategy s :
       {api::Strategy::kSaturation, api::Strategy::kRefUcq,
        api::Strategy::kRefScq, api::Strategy::kRefGcov}) {
    for (Request& r : requests_of(s, nproc, true,
                                  s == api::Strategy::kRefUcq
                                      ? all_but_example1
                                      : all_keys)) {
      calibration.push_back(std::move(r));
    }
  }
  x.calibration = Calibrate(env, calibration, 1, &failed);
  x.error_rate = static_cast<double>(failed) / static_cast<double>(attempted);

  ReportLayers(sink, &report);
  ReportExtras(x, &report);
  WriteSpans(sink, args.spans_path);
  return report.Print(attempted, failed);
}

}  // namespace rdfbench
