// Experiment T7 — Dat, "another answering technique ... an alternative to
// Ref and Sat" (Section 5): the Datalog encoding evaluated bottom-up
// (LogicBlox stand-in) against Sat and cost-based Ref on the shared suite.
//
// Expected shape: Dat's closure ≈ Sat's saturation (same fixpoint, higher
// constant factors); per-query evaluation then comparable to Sat; Ref
// avoids the upfront cost entirely.
//
// Every run also applies an in-run gate: whole-suite Dat and Sat passes
// alternate in this process, and the run exits non-zero when the median
// Dat pass takes more than kMaxDatVsSat times the median Sat pass. Both
// sides share the machine and the heap, so the ratio holds on noisy
// runners.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "common/timer.h"

#include "bench/bench_common.h"
#include "datalog/rdf_datalog.h"

namespace rdfref {
namespace bench {
namespace {

void PrintDatalogTable() {
  api::QueryAnswerer* answerer = SharedLubm();

  // One-time preparations, reported explicitly.
  query::Cq warmup = ParseUb(answerer, "SELECT ?x WHERE { ?x a ub:Course . }");
  api::AnswerProfile sat_prep;
  (void)answerer->Answer(warmup, api::Strategy::kSaturation, &sat_prep);
  api::AnswerProfile dat_prep;
  (void)answerer->Answer(warmup, api::Strategy::kDatalog, &dat_prep);
  std::printf("\n== T7: Dat vs Sat vs Ref ==\n");
  std::printf("one-time: saturation %.2f ms (%zu triples added), "
              "datalog closure %.2f ms\n",
              answerer->saturation_millis(), answerer->saturation_added(),
              dat_prep.prepare_millis);

  std::printf("%-18s %12s %12s %12s %9s\n", "query", "SAT(ms)", "DAT(ms)",
              "GCOV(ms)", "answers");
  for (const auto& [name, text] : LubmQuerySuite()) {
    query::Cq q = ParseUb(answerer, text);
    api::AnswerProfile sat, dat, gcov;
    auto sat_table = answerer->Answer(q, api::Strategy::kSaturation, &sat);
    auto dat_table = answerer->Answer(q, api::Strategy::kDatalog, &dat);
    auto gcov_table = answerer->Answer(q, api::Strategy::kRefGcov, &gcov);
    if (!sat_table.ok() || !dat_table.ok() || !gcov_table.ok()) continue;
    std::printf("%-18s %12.2f %12.2f %12.2f %9zu\n", name.c_str(),
                sat.eval_millis, dat.eval_millis,
                gcov.prepare_millis + gcov.eval_millis,
                sat_table->NumRows());
    if (dat_table->NumRows() != sat_table->NumRows()) {
      std::printf("  !! answer mismatch: DAT %zu vs SAT %zu\n",
                  dat_table->NumRows(), sat_table->NumRows());
    }
  }
  std::printf("\n");
}

// Milliseconds of one pass over the LUBM suite under `strategy`.
double SuitePassMillis(api::QueryAnswerer* answerer,
                       const std::vector<query::Cq>& suite,
                       api::Strategy strategy) {
  Timer timer;
  for (const query::Cq& q : suite) {
    auto table = answerer->Answer(q, strategy);
    benchmark::DoNotOptimize(table);
  }
  return timer.ElapsedMillis();
}

// The T7 gate's limit on a Dat suite pass over a Sat suite pass.
constexpr double kMaxDatVsSat = 8;

// The T7 gate: returns false when Dat's suite pass exceeds kMaxDatVsSat
// times Sat's. Repetitions alternate which strategy goes first.
bool DatVsSatGate() {
  api::QueryAnswerer* answerer = SharedLubm();
  std::vector<query::Cq> suite;
  for (const auto& [name, text] : LubmQuerySuite()) {
    suite.push_back(ParseUb(answerer, text));
  }
  constexpr int kReps = 9;
  std::vector<double> sat, dat;
  for (int rep = 0; rep < kReps; ++rep) {
    if (rep % 2 == 0) {
      sat.push_back(SuitePassMillis(answerer, suite, api::Strategy::kSaturation));
      dat.push_back(SuitePassMillis(answerer, suite, api::Strategy::kDatalog));
    } else {
      dat.push_back(SuitePassMillis(answerer, suite, api::Strategy::kDatalog));
      sat.push_back(SuitePassMillis(answerer, suite, api::Strategy::kSaturation));
    }
  }
  const double sat_ms = Median(sat), dat_ms = Median(dat);
  const double ratio = dat_ms / sat_ms;
  std::printf("T7 gate: suite pass DAT %.2f ms / SAT %.2f ms = %.2fx "
              "(median of %d alternating passes; limit %.1fx) %s\n\n",
              dat_ms, sat_ms, ratio, kReps, kMaxDatVsSat,
              ratio <= kMaxDatVsSat ? "PASS" : "FAIL");
  return ratio <= kMaxDatVsSat;
}

void BM_DatalogClosure(benchmark::State& state) {
  api::QueryAnswerer* answerer = SharedLubm();
  for (auto _ : state) {
    datalog::DatalogAnswerer dat(&answerer->ref_store());
    dat.EnsureClosure();
    benchmark::DoNotOptimize(dat.closure_size());
  }
}
BENCHMARK(BM_DatalogClosure)->Unit(benchmark::kMillisecond);

void BM_DatalogQuery(benchmark::State& state) {
  api::QueryAnswerer* answerer = SharedLubm();
  query::Cq q = ParseUb(
      answerer,
      "SELECT ?x ?c WHERE { ?x a ub:Student . ?x ub:takesCourse ?c . }");
  (void)answerer->Answer(q, api::Strategy::kDatalog);  // warm closure
  for (auto _ : state) {
    auto table = answerer->Answer(q, api::Strategy::kDatalog);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_DatalogQuery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace rdfref

int main(int argc, char** argv) {
  rdfref::bench::PrintDatalogTable();
  if (!rdfref::bench::DatVsSatGate()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
