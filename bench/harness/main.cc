// harmony_harness — runs one benchmark workload and writes its result file.
//
//   harmony_harness --workload NAME --seed N --seconds S [--traced] [--smoke]
//                   --result FILE [--trace-file FILE]
//
// run.sh builds this binary, runs each workload in its own process, and
// prints the metrics from the result files (report.py). The exit code is 0
// when every output check passed, 1 when one failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

using harness::RunConfig;
using harness::RunResult;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, RunResult&);
};

constexpr Workload kWorkloads[] = {
    {"batch_paper_pair", harness::RunBatchPaperPair},
    {"batch_large_blocked", harness::RunBatchLargeBlocked},
    {"nway_vocab", harness::RunNwayVocab},
    {"served_mixed", harness::RunServedMixed},
};

int Usage() {
  std::fputs(
      "usage: harmony_harness --workload NAME --seed N --seconds S "
      "[--traced] [--smoke] --result FILE [--trace-file FILE]\n"
      "workloads: batch_paper_pair batch_large_blocked nway_vocab "
      "served_mixed\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string result_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--traced") {
      config.traced = true;
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--result") {
      result_path = value();
    } else if (arg == "--trace-file") {
      config.trace_path = value();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr || result_path.empty() || config.seconds <= 0) {
    return Usage();
  }

  const std::string load_before = harness::LoadAverageJson();
  RunResult result;
  workload->run(config, result);
  result.Check(result.attempted > 0, "at least one operation attempted");
  const std::string fingerprint = harness::FingerprintJson(
      config, load_before, harness::LoadAverageJson());
  if (!result.Write(result_path, config, fingerprint)) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 1;
  }
  return result.correct() ? 0 : 1;
}
