#include "bench_util.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

namespace {
/// A "Name:   <n> kB" field of /proc/self/status, in MiB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0;
}
}  // namespace

double ResidentMb() { return StatusMb("VmRSS"); }

double LiveMb() {
  const struct mallinfo2 heap = mallinfo2();
  return static_cast<double>(heap.uordblks + heap.hblkhd) / (1 << 20) +
         StatusMb("RssFile");
}

double ProcessCpuSeconds() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": the all-CPU line
  CpuTicks t;
  uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    t.total += value;
    if (field == 7) t.steal = value;
  }
  return t;
}

size_t UsableCores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  // Metric names and units are identifiers ("query_p50_ms", "1/s"), so
  // they need no JSON escaping.
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
