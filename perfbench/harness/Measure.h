//===- perfbench/harness/Measure.h - Percentiles, spans, layer samples ----===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring side of the benchmark, independent of any workload:
///
///  * percentile()/tailPercentile() — the order statistics every latency
///    metric is reported with. The tail helper picks the highest standard
///    percentile that still has at least ten samples beyond it and reports
///    the sample count beside it.
///  * SpanRecorder/ScopedSpan — spans the benchmark records around each
///    public call it makes into a layer (name, start, end, parent, op id),
///    kept in memory and written out as JSON lines at exit. Recording is
///    off unless the run is the traced one.
///  * LayerSamples — per-op values of each per-layer metric; the reported
///    value is their median.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

/// Linear-interpolated percentile \p P (0..100) of \p Samples; 0 when
/// empty.
double percentile(std::vector<double> Samples, double P);

inline double median(const std::vector<double> &Samples) {
  return percentile(Samples, 50);
}

struct TailPercentile {
  double P = 50;        ///< the percentile reported
  double Value = 0;     ///< its value
  size_t Count = 0;     ///< samples in the distribution
  size_t Beyond = 0;    ///< samples strictly beyond the percentile's rank
  bool Supported = false; ///< at least ten samples lie beyond it
};

/// Number of samples beyond percentile \p P of \p Count samples.
size_t samplesBeyond(size_t Count, double P);

/// The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
/// beyond it. With fewer than 20 samples no percentile qualifies; the
/// median is returned with Supported = false.
TailPercentile tailPercentile(const std::vector<double> &Samples);

/// One recorded span. Times are seconds since the recorder's epoch.
struct SpanRecord {
  std::string Name;
  double Start = 0;
  double End = 0;
  int64_t Parent = -1; ///< index of the enclosing span, -1 at top level
  uint64_t Op = 0;     ///< operation (batch op or stream session) id
};

/// In-memory span store. Spans nest strictly (one recording thread).
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled = false)
      : Enabled(Enabled), Epoch(Clock::now()) {}

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span; returns its index, or -1 when recording is off.
  int64_t begin(const char *Name, uint64_t Op);
  void end(int64_t Index);

  /// Records an already-measured interval as a child of the open span.
  void record(const char *Name, uint64_t Op, Clock::time_point Start,
              Clock::time_point End);

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Self time per span name: duration minus the part covered by its
  /// direct children, summed over every span of that name.
  std::map<std::string, double> selfSeconds() const;

  /// One JSON object per line: {"name","start_s","end_s","parent","op"}.
  bool writeJsonLines(const std::string &Path) const;

private:
  bool Enabled;
  Clock::time_point Epoch;
  std::vector<SpanRecord> Spans;
  std::vector<int64_t> Open;
};

/// RAII span; a no-op when the recorder is off.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, const char *Name, uint64_t Op)
      : R(R), Index(R.begin(Name, Op)) {}
  ~ScopedSpan() { R.end(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &R;
  int64_t Index;
};

/// Runs \p F inside a span named \p Name; returns its wall seconds.
template <typename Fn>
double timed(SpanRecorder &Spans, const char *Name, uint64_t Op, Fn &&F) {
  ScopedSpan S(Spans, Name, Op);
  Clock::time_point A = Clock::now();
  F();
  return secondsBetween(A, Clock::now());
}

/// Per-op samples of each per-layer metric, keyed by metric name.
class LayerSamples {
public:
  void add(const std::string &Name, double Value) {
    Samples[Name].push_back(Value);
  }
  bool has(const std::string &Name) const { return Samples.count(Name); }
  /// Median of the samples of \p Name; 0 when the layer never ran.
  double value(const std::string &Name) const;

private:
  std::map<std::string, std::vector<double>> Samples;
};

/// Peak resident set size (VmHWM) of process \p Pid in MiB, read from
/// /proc/<pid>/status ("self" for the benchmark itself); 0 if unreadable.
double peakRssMb(const std::string &Pid);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
