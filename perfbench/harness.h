// Measurement helpers of the host benchmark: order statistics, an
// in-memory span log with self time, process CPU and peak-RSS probes, and
// the one-line JSON result. Nothing here knows about mining; bench.h does.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (q = 0.5 is the median). `values` must be non-empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One closed span: `parent` indexes the enclosing span (-1 = top level).
struct SpanRecord {
  std::string name;
  int parent = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double dur_ms() const { return end_ms - start_ms; }
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
std::vector<double> self_times_ms(const std::vector<SpanRecord>& spans);

/// Spans recorded by the benchmark around calls into the library's layers.
/// Kept in memory; written out once at the end of a run. Single-threaded:
/// spans are opened and closed on the driver thread only.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Open a span nested in the innermost open one; returns its index.
  int begin(std::string name);
  /// Close span `id`, which must be the innermost open span.
  void end(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Chrome trace-event JSON ({"traceEvents":[...]}), one "X" per span.
  std::string chrome_json() const;

 private:
  using Clock = std::chrono::steady_clock;
  double now_ms() const;

  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span on a SpanLog.
class Scoped {
 public:
  Scoped(SpanLog& log, std::string name)
      : log_(log), id_(log.begin(std::move(name))) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Seconds on the steady clock since an arbitrary fixed point.
double now_s();

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();

/// The VmHWM line of a /proc/<pid>/status text, in KiB.
std::optional<double> parse_vmhwm_kib(std::string_view status_text);

/// Peak-RSS probe. Where /proc/self/clear_refs accepts "5", the kernel
/// high-water mark is reset before each measured interval and VmHWM read
/// after it, so each interval gets its own peak. Otherwise the probe falls
/// back to getrusage's ru_maxrss, a process-lifetime peak, and says so.
class PeakRss {
 public:
  PeakRss();
  bool per_interval() const { return per_interval_; }
  /// Start an interval (no-op in the fallback).
  void reset();
  /// Peak resident MiB since reset() (or since process start).
  double peak_mib() const;

 private:
  bool per_interval_ = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{
/// name: {"value": v, "unit": u}, ...}}. Values are printed in shortest
/// round-trip form, so every measured digit survives.
std::string result_json(bool correct, unsigned long long attempted,
                        unsigned long long failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
