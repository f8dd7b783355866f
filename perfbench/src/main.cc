// The repository benchmark driver (see README.md).
//
// Usage: sjoin_perfbench --workload <name> --seed <n> --seconds <s>
//                        --trace <0|1>
//
// Prints the host facts on one line, then the result as the last line of
// standard output. Exits 0 only when every output passed its check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>

#include "host.h"
#include "perfbench.h"
#include "report.h"

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "sjoin_perfbench: %s\nusage: sjoin_perfbench --workload "
               "<join-heeb-tower|cache-heeb-real|serve-prob-open> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  std::exit(2);
}

bool ParseInt(const std::string& text, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(text.c_str(), &end, 10);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::BenchArgs;
  using perfbench::BenchResult;
  const std::map<std::string, std::function<BenchResult(const BenchArgs&)>>
      workloads = {
          {"join-heeb-tower", perfbench::RunJoinHeebTower},
          {"cache-heeb-real", perfbench::RunCacheHeebReal},
          {"serve-prob-open", perfbench::RunServeProbOpen},
      };

  BenchArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    long long number = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseInt(value, &number)) Usage("--seed takes an integer");
      args.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, &number) || number < 1 || number > 600) {
        Usage("--seconds takes an integer in [1, 600]");
      }
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) Usage("unknown workload");

  std::printf("host %s\n", perfbench::HostFactsJson().c_str());
  if (!perfbench::IsReleaseBuild()) {
    std::fprintf(stderr,
                 "sjoin_perfbench: WARNING: not a Release build; figures are "
                 "not comparable\n");
  }
  std::fflush(stdout);

  BenchResult result = workload->second(args);
  if (!args.trace) result.metrics["peak_rss_mb"] = perfbench::PeakRssMb();
  for (auto& [name, value] : result.metrics) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "sjoin_perfbench: metric %s is not finite\n",
                   name.c_str());
      value = 0.0;
      result.correct = false;
    }
  }
  perfbench::PrintResult(result, args.trace);
  return result.correct && result.failed == 0 ? 0 : 1;
}
