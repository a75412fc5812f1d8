// rdfbench: the repo benchmark binary. Usage:
//   rdfbench --workload lubm-analyst|sp2b-serve|sp2b-churn --seed N
//            --seconds S --trace 0|1 [--tiny] [--corrupt-digest K]
//            [--rev REV] [--spans PATH]
// Prints a build stamp, the request-sequence hashes, and as its last line
// the result object (end-to-end metrics, or per-layer ones with --trace 1).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, rdfbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--corrupt-digest") {
      args->corrupt_digest = std::atoi(value.c_str());
    } else if (flag == "--rev") {
      args->rev = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  rdfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rdfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  if (!rdfbench::StampBuild(args)) return 3;
  if (args.spans_path.empty()) {
    args.spans_path = "spans-" + args.workload + ".csv";
  }
  if (args.workload == "lubm-analyst") return rdfbench::RunLubmAnalyst(args);
  if (args.workload == "sp2b-serve") return rdfbench::RunSp2b(args, false);
  if (args.workload == "sp2b-churn") return rdfbench::RunSp2b(args, true);
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
