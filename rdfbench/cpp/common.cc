#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>
#include <unordered_map>

#include "common/thread_pool.h"

namespace rdfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

namespace {
// The speed probe's buffer: allocated (and zero-filled, so fully resident)
// by the first probe, before any set-up, and kept for the whole run.
constexpr size_t kProbeWords = size_t{1} << 22;  // 32 MiB
std::vector<uint64_t>* probe_buffer = nullptr;
}  // namespace

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double probe_mb =
      probe_buffer != nullptr
          ? static_cast<double>(kProbeWords * sizeof(uint64_t)) / (1 << 20)
          : 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0 -  // KiB on Linux
         probe_mb;
}

uint64_t Digest(const rdfref::engine::Table& table) {
  uint64_t sum = 0;
  const size_t rows = table.NumRows();
  for (size_t i = 0; i < rows; ++i) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (rdfref::rdf::TermId id : table.row(i)) h = Mix64(h ^ id) + 1;
    sum += Mix64(h);
  }
  return Mix64(sum ^ Mix64(rows + 0x51ed270bULL));
}

uint64_t Fnv(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string RenameVars(const std::string& text, const std::string& suffix) {
  std::string out;
  out.reserve(text.size() + 8 * suffix.size());
  for (size_t i = 0; i < text.size(); ++i) {
    out.push_back(text[i]);
    if (text[i] != '?') continue;
    size_t j = i + 1;
    while (j < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[j])) ||
            text[j] == '_')) {
      out.push_back(text[j++]);
    }
    out += suffix;
    i = j - 1;
  }
  return out;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::vector<double> PerSlice(const std::vector<std::vector<double>>& slices,
                             double p, const std::vector<double>& scales) {
  std::vector<double> out;
  for (size_t i = 0; i < slices.size(); ++i) {
    if (!slices[i].empty()) out.push_back(Percentile(slices[i], p) * scales[i]);
  }
  return out;
}

namespace {

uint64_t probe_sink = 0;  // keeps the probe's work observable

double ProbeOnceMs() {
  if (probe_buffer == nullptr) {
    probe_buffer = new std::vector<uint64_t>(kProbeWords);
  }
  std::vector<uint64_t>* buffer = probe_buffer;
  const int64_t start = NowNs();
  Rng rng(0x70726f6265ULL);
  std::unordered_map<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 20000; ++i) map[rng.Uniform(50000)] += i;
  std::vector<uint64_t> keys;
  keys.reserve(map.size());
  for (const auto& [k, v] : map) keys.push_back(k ^ v);
  std::sort(keys.begin(), keys.end());
  uint64_t acc = keys.size();
  const uint64_t mask = buffer->size() - 1;
  for (int i = 0; i < 100000; ++i) acc += (*buffer)[rng.Next() & mask]++;
  probe_sink += acc;
  return static_cast<double>(NowNs() - start) / 1e6;
}

}  // namespace

double ProbeMs() {
  static const double first_touch = ProbeOnceMs();  // allocates the buffer
  (void)first_touch;
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) runs.push_back(ProbeOnceMs());
  return Median(std::move(runs));
}

double Scale(double probe_before_ms, double probe_after_ms) {
  return kProbeReferenceMs * 2.0 / (probe_before_ms + probe_after_ms);
}

int Report::Print(uint64_t attempted, uint64_t failed) const {
  std::string line = "{\"correct\": ";
  line += failed == 0 && attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    double value = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (i > 0) line += ", ";
    line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

bool StampBuild(const Args& args) {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  bool sanitized = std::string(RDFBENCH_CXX_FLAGS).find("-fsanitize") !=
                   std::string::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  std::printf(
      "{\"stamp\": {\"rev\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"flags\": \"%s\", \"build_type\": \"%s\", \"optimized\": %s, "
      "\"sanitized\": %s, \"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d}}\n",
      args.rev.c_str(), std::thread::hardware_concurrency(),
      RDFBENCH_COMPILER, RDFBENCH_CXX_FLAGS, RDFBENCH_BUILD_TYPE,
      optimized ? "true" : "false", sanitized ? "true" : "false",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0);
  if (!optimized || sanitized) {
    std::fprintf(stderr,
                 "refusing to time this build: it must be optimised "
                 "(__OPTIMIZE__) and built without sanitizers\n");
    return false;
  }
  return true;
}

const std::vector<api::Strategy>& SuiteStrategies() {
  static const std::vector<api::Strategy> kStrategies = {
      api::Strategy::kSaturation, api::Strategy::kRefUcq,
      api::Strategy::kRefScq, api::Strategy::kRefGcov,
      api::Strategy::kDatalog};
  return kStrategies;
}

const char* StrategyKey(api::Strategy s) {
  switch (s) {
    case api::Strategy::kSaturation:
      return "sat";
    case api::Strategy::kRefUcq:
      return "ref_ucq";
    case api::Strategy::kRefScq:
      return "ref_scq";
    case api::Strategy::kRefGcov:
      return "ref_gcov";
    case api::Strategy::kDatalog:
      return "dat";
    default:
      return "other";
  }
}

}  // namespace rdfbench
