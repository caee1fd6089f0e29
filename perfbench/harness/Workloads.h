//===- perfbench/harness/Workloads.h - The benchmark's workloads ---------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (see perfbench/README.md for the full definitions):
///
///  * race-highcop   — closed-loop batch ops: parse -> detectRaces -> render
///                     on a highcop-shaped trace (witness-heavy).
///  * props-mixed    — closed-loop batch ops: parse -> atomicity ->
///                     deadlocks -> render (the other two drivers).
///  * stream-eclipse — open-loop paced sessions streamed to rvpredictd.
///
/// Every workload draws its trace from SyntheticSpec with the seed given on
/// the command line; the program under test only ever sees trace text.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Measure.h"

#include "detect/Detect.h"
#include "workloads/Synthetic.h"

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { RaceBatch, PropsBatch, Stream };

struct WorkloadConfig {
  std::string Name;
  WorkloadKind Kind = WorkloadKind::RaceBatch;
  rvp::SyntheticSpec Spec;
  /// The seed used when the command line gives none: the catalog row's
  /// seed for the shapes taken from the catalog.
  uint64_t DefaultSeed = 1;
  uint32_t Window = 10000;
  uint32_t Jobs = 2;
  /// Percentile reported as latency_tail_s (fixed per workload, so the
  /// metric means the same thing on every commit).
  double TailP = 75;
  // Stream only: concurrent sessions, and the open-loop schedule — every
  // DATA frame carries EventsPerSecond * CadenceSeconds events and is due
  // CadenceSeconds after the previous one.
  unsigned Sessions = 2;
  double EventsPerSecond = 0;
  double CadenceSeconds = 0;
  /// Added to every expected finding count: the tests inject a wrong
  /// expectation to prove the gate fails the operation.
  int32_t ExpectedSkew = 0;
  std::string Why;

  uint64_t expected(uint32_t Count) const {
    return static_cast<uint64_t>(static_cast<int64_t>(Count) + ExpectedSkew);
  }
};

std::vector<std::string> workloadNames();

/// The configuration of workload \p Name with \p Seed in its spec (the
/// workload's default seed when none is given); false for an unknown name.
bool workloadConfig(const std::string &Name, std::optional<uint64_t> Seed,
                    WorkloadConfig &Out);

struct RunOptions {
  double Seconds = 10;
  bool Traced = false;
  /// Path of the rvpredictd binary (stream workload).
  std::string DaemonPath;
  /// Working directory for the daemon's socket and stats file; relative
  /// paths keep the unix socket path short.
  std::string WorkDir = ".";
};

/// The least number of set-up repetitions in a run; setup_s is their
/// median.
constexpr unsigned SetupReps = 15;

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< first diagnostic of each failure
  std::vector<double> SetupSeconds;
  /// Batch: seconds per op, trace text to rendered report. Stream: seconds
  /// from a window's last event being due to its REPORT arriving.
  std::vector<double> Latencies;
  /// Stream only: FIN due to SUMMARY received, per session.
  std::vector<double> SummaryLatencies;
  double PeakRssMb = 0;
  /// Traced run only.
  LayerSamples Layers;
  /// Human-readable lines printed before the result (parameters, phase
  /// trees, self times).
  std::vector<std::string> Notes;
};

/// Runs one workload for Options.Seconds (stream: whole rounds of
/// sessions). Never throws for an operation failure: failures are counted.
RunResult runWorkload(const WorkloadConfig &W, const RunOptions &Options,
                      SpanRecorder &Spans);

/// One metric of the result line: name and unit.
struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The per-layer metrics of the traced run, in output order (the
/// per_layer list of BENCHMARK.json).
const std::vector<MetricDef> &perLayerMetrics();

// ---- internals shared by the workload implementations

/// Generates the trace text of \p W into \p Text (the workloads and trace
/// layers of set-up), spanning both calls; per-layer times go to \p Layers
/// if set. Returns the seconds the two calls took.
double generateText(const WorkloadConfig &W, SpanRecorder &Spans,
                    LayerSamples *Layers, std::string &Text);

/// One detector entry call of an operation, for the detect.* layers.
struct DetectCall {
  const char *Driver; ///< "detect", "atomicity", or "deadlock"
  const rvp::DetectionStats *Stats;
  double Seconds;     ///< the benchmark's span around the call
  uint64_t Findings;
};

/// Adds one operation's detect.* samples (summed over \p Calls) from the
/// calls' telemetry phase trees; the first time, appends the trees to
/// \p Notes.
void recordDetectLayers(LayerSamples &Layers,
                        const std::vector<DetectCall> &Calls,
                        std::vector<std::string> &Notes);

RunResult runBatch(const WorkloadConfig &W, const RunOptions &Options,
                   SpanRecorder &Spans);
RunResult runStream(const WorkloadConfig &W, const RunOptions &Options,
                    SpanRecorder &Spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
