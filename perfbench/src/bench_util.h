#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds since an arbitrary process-wide origin.
inline double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Samples strictly above the q-quantile's rank — the "at least ten
/// samples beyond it" test a reported percentile must pass.
size_t SamplesBeyond(size_t n, double q);

/// Resident set size of this process, in MiB (VmRSS).
double ResidentMb();

/// Memory the process holds live, in MiB: heap bytes in use (malloc
/// arenas plus mmapped chunks) and resident file-backed pages (the
/// binary and mmapped index files). Unlike VmRSS it excludes free pages
/// the allocator keeps, which vary run to run with fragmentation.
double LiveMb();

/// CPU time (user + system) of every thread of this process, seconds.
double ProcessCpuSeconds();

/// Cumulative CPU ticks of the whole machine from /proc/stat: all
/// states, and the share a hypervisor gave to other guests (steal).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// CPUs this process may run on (what `nproc` prints).
size_t UsableCores();

/// One named measurement as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Renders the final result object: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values keep all digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
