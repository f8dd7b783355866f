#include "host.h"

#include <sched.h>
#include <unistd.h>

#include <fstream>
#include <string>

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

/// The CPU set the process started with, read once.
const cpu_set_t& StartingCpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  return cpus;
}

int AvailableCpus() {
  cpu_set_t set = StartingCpus();
  if (CPU_COUNT(&set) > 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void PinToCpu(int i) {
  cpu_set_t all = StartingCpus();
  const int count = CPU_COUNT(&all);
  if (count == 0) return;
  int target = i % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all) || target-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

void UnpinThread() {
  cpu_set_t all = StartingCpus();
  if (CPU_COUNT(&all) > 0) sched_setaffinity(0, sizeof(all), &all);
}

bool IsReleaseBuild() { return std::string(PERFBENCH_BUILD_TYPE) == "Release"; }

std::string HostFactsJson() {
  return "{\"nproc\": " + std::to_string(AvailableCpus()) +
         ", \"cpu_model\": " + JsonString(CpuModel()) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"release\": " + (IsReleaseBuild() ? "true" : "false") + "}";
}

}  // namespace perfbench
