#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

/// \file
/// Facts about the machine and build a measurement came from, and CPU
/// pinning.

namespace perfbench {

/// True when the driver was compiled as a CMake Release build.
bool IsReleaseBuild();

/// Pins the calling thread to the `i`-th CPU (mod their count) of those
/// the process started with; a no-op where pinning is unavailable.
void PinToCpu(int i);

/// Restores the CPU set the process started with.
void UnpinThread();

/// One JSON object: CPUs available to this process, CPU model, compiler
/// and version, and build type.
std::string HostFactsJson();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
