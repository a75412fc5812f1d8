// Experiment T15 — hierarchy-aware term encoding (DESIGN.md §12).
//
// The same deep-hierarchy reformulation queries answered two ways over the
// same LUBM dataset and the same (encoded) id space:
//
//   Classic:  ReformulationOptions::use_encoding = false — every subclass /
//             subproperty of the queried term contributes its own UCQ
//             member, exactly the pre-encoding plan.
//   Interval: the default — the reformulator collapses each hierarchy
//             union into one interval atom and the store answers it as a
//             single contiguous range scan.
//
// Q1-persons is the paper's Q6/Q9 class of query: `?x a ub:Person` fans
// out across the whole Person subtree under classic reformulation and is
// one range scan when encoded. Q9-teachers shows the same collapse inside
// a three-atom join. Qdeep-taxon isolates the hierarchy cost on a
// synthetic 256-class subclass chain where the union is purely subclass
// members — LUBM's Person union keeps 23 domain/range-derived members
// that no type interval can absorb, so its collapse is partial (44 -> 24).
// The `cqs` counter reports the evaluated UCQ size — the structural
// effect the wall-clock speedup comes from. Q6-members is the LUBM suite's
// largest reformulation (a variable class joined with memberOf).
//
// Every run also applies an in-run gate: for each case, classic and
// interval passes alternate in this process, and the run exits non-zero
// when the median interval pass takes more than kMaxIntervalVsClassic
// times the median classic pass. Both sides share the machine and the
// heap, so the ratio holds on noisy runners.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace bench {
namespace {

api::QueryAnswerer* LubmAnswerer() { return SharedLubm(); }

// A 256-deep subclass chain with 30 instances typed at every class:
// `?x a C0` reformulates into 256 point-scan members under classic
// reformulation and into a single POS range scan when encoded.
api::QueryAnswerer* DeepTaxonAnswerer() {
  static api::QueryAnswerer* answerer = []() {
    constexpr int kClasses = 256;
    constexpr int kPerClass = 30;
    rdf::Graph g;
    std::vector<rdf::TermId> cls;
    cls.reserve(kClasses);
    for (int i = 0; i < kClasses; ++i) {
      cls.push_back(
          g.dict().InternUri("http://deep.example/C" + std::to_string(i)));
    }
    for (int i = 1; i < kClasses; ++i) {
      g.Add(cls[i], rdf::vocab::kSubClassOfId, cls[i - 1]);
    }
    for (int i = 0; i < kClasses; ++i) {
      for (int j = 0; j < kPerClass; ++j) {
        g.Add(g.dict().InternUri("http://deep.example/i" +
                                 std::to_string(i) + "_" +
                                 std::to_string(j)),
              rdf::vocab::kTypeId, cls[i]);
      }
    }
    return new api::QueryAnswerer(std::move(g));
  }();
  return answerer;
}

struct EncodingCase {
  const char* name;
  api::QueryAnswerer* (*answerer)();
  const char* sparql;
};

const EncodingCase kCases[] = {
    {"Q1-persons", LubmAnswerer, "SELECT ?x WHERE { ?x a ub:Person . }"},
    {"Q9-teachers", LubmAnswerer,
     "SELECT ?f ?c ?s WHERE { ?f ub:teacherOf ?c . "
     "?s ub:takesCourse ?c . ?s a ub:Student . }"},
    {"Qdeep-taxon", DeepTaxonAnswerer,
     "SELECT ?x WHERE { ?x a <http://deep.example/C0> . }"},
    {"Q6-members", LubmAnswerer,
     "SELECT ?x ?u ?z WHERE { ?x rdf:type ?u . ?x ub:memberOf ?z . }"},
};

// The gate's limit on an interval pass over a classic pass.
constexpr double kMaxIntervalVsClassic = 1.1;

// Milliseconds of `reps` Ref-UCQ answers of q.
double PassMillis(api::QueryAnswerer* answerer, const query::Cq& q,
                  const api::AnswerOptions& options, int reps) {
  Timer timer;
  for (int i = 0; i < reps; ++i) {
    auto table = answerer->Answer(q, api::Strategy::kRefUcq, nullptr, options);
    if (!table.ok()) std::abort();
    benchmark::DoNotOptimize(table);
  }
  return timer.ElapsedMillis();
}

// The T15 gate: returns false when any case's interval pass exceeds
// kMaxIntervalVsClassic times its classic pass. Repetitions alternate
// which mode goes first; each pass repeats the query until the classic
// side has run for about 50 ms, so a pass is never a single timer tick.
bool IntervalVsClassicGate() {
  std::printf("\n== T15 gate: interval vs classic Ref-UCQ ==\n");
  std::printf("%-14s %14s %14s %8s\n", "query", "classic(ms)",
              "interval(ms)", "ratio");
  constexpr int kPasses = 9;
  bool pass = true;
  for (const EncodingCase& c : kCases) {
    api::QueryAnswerer* answerer = c.answerer();
    const query::Cq q = ParseUb(answerer, c.sparql);
    api::AnswerOptions interval;
    api::AnswerOptions classic;
    classic.reform.use_encoding = false;
    const double once = std::max(PassMillis(answerer, q, classic, 1), 0.01);
    const int reps = std::clamp(static_cast<int>(50.0 / once), 1, 1000);
    std::vector<double> classic_ms, interval_ms;
    for (int rep = 0; rep < kPasses; ++rep) {
      if (rep % 2 == 0) {
        classic_ms.push_back(PassMillis(answerer, q, classic, reps));
        interval_ms.push_back(PassMillis(answerer, q, interval, reps));
      } else {
        interval_ms.push_back(PassMillis(answerer, q, interval, reps));
        classic_ms.push_back(PassMillis(answerer, q, classic, reps));
      }
    }
    const double classic_med = Median(classic_ms) / reps;
    const double interval_med = Median(interval_ms) / reps;
    const double ratio = interval_med / classic_med;
    const bool ok = ratio <= kMaxIntervalVsClassic;
    pass = pass && ok;
    std::printf("%-14s %14.3f %14.3f %7.2fx %s\n", c.name, classic_med,
                interval_med, ratio, ok ? "PASS" : "FAIL");
  }
  std::printf("(median of %d alternating passes per query; limit %.1fx)\n\n",
              kPasses, kMaxIntervalVsClassic);
  return pass;
}

void RunCase(benchmark::State& state, const EncodingCase& c,
             bool use_encoding) {
  api::QueryAnswerer* answerer = c.answerer();
  const query::Cq q = ParseUb(answerer, c.sparql);
  api::AnswerOptions options;
  options.reform.use_encoding = use_encoding;

  uint64_t cqs = 0;
  size_t rows = 0;
  for (auto _ : state) {
    api::AnswerProfile profile;
    auto table = answerer->Answer(q, api::Strategy::kRefUcq, &profile,
                                  options);
    if (!table.ok()) std::abort();
    cqs = profile.reformulation_cqs;
    rows = table->NumRows();
    benchmark::DoNotOptimize(table);
  }
  state.counters["cqs"] = static_cast<double>(cqs);
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_Encoding_Classic(benchmark::State& state) {
  RunCase(state, kCases[state.range(0)], /*use_encoding=*/false);
}

void BM_Encoding_Interval(benchmark::State& state) {
  RunCase(state, kCases[state.range(0)], /*use_encoding=*/true);
}

void NameCases(benchmark::internal::Benchmark* b) {
  for (int i = 0; i < static_cast<int>(std::size(kCases)); ++i) b->Arg(i);
}

BENCHMARK(BM_Encoding_Classic)->Apply(NameCases)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Encoding_Interval)->Apply(NameCases)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace rdfref

int main(int argc, char** argv) {
  if (!rdfref::bench::IntervalVsClassicGate()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
