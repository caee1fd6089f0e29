//===- perfbench/harness/Workloads.cpp - Configs and the batch workloads --===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Gate.h"

#include "detect/Atomicity.h"
#include "detect/Deadlock.h"
#include "detect/Report.h"
#include "support/Telemetry.h"
#include "trace/TraceIO.h"

#include <malloc.h>

#include <algorithm>
#include <optional>

using namespace perfbench;
using namespace rvp;

std::vector<std::string> perfbench::workloadNames() {
  return {"race-highcop", "props-mixed", "stream-eclipse"};
}

bool perfbench::workloadConfig(const std::string &Name,
                               std::optional<uint64_t> Seed,
                               WorkloadConfig &Out) {
  WorkloadConfig W;
  W.Name = Name;
  SyntheticSpec &S = W.Spec;
  S.Name = Name;
  if (Name == "race-highcop") {
    // The bench:highcop catalog row.
    W.Kind = WorkloadKind::RaceBatch;
    W.DefaultSeed = 108;
    S.Workers = 24;
    S.TargetEvents = 40000;
    S.PlainRaces = 40;
    S.QcOnlyPairs = 120;
    S.BranchPercent = 4;
    S.SyncPercent = 8;
    W.Why = "closed-loop parse -> detectRaces (hybrid, witnesses, 2 jobs) "
            "-> render; witness re-derivation dominates and every COP stage "
            "plus the pool runs";
  } else if (Name == "props-mixed") {
    W.Kind = WorkloadKind::PropsBatch;
    S.Workers = 8;
    S.TargetEvents = 40000;
    S.AtomicityPairs = 20;
    S.DeadlockCycles = 10;
    W.Why = "closed-loop parse -> atomicity -> deadlocks (2 jobs) -> render; "
            "the other two drivers and their witness checks";
  } else if (Name == "stream-eclipse") {
    // bench:eclipse's shape, limited to the plain race class.
    W.Kind = WorkloadKind::Stream;
    W.DefaultSeed = 107;
    S.Workers = 18;
    S.TargetEvents = 120000;
    S.PlainRaces = 8;
    S.QcOnlyPairs = 16;
    S.OrderedPairs = 40;
    S.AlignWindow = 1000;
    W.Window = 1000;
    W.TailP = 95;
    W.Sessions = 2;
    W.EventsPerSecond = 10000;
    W.CadenceSeconds = 0.3;
    W.Why = "open-loop streamed sessions against rvpredictd --jobs=2; "
            "ingest, incremental parsing and per-window steps dominate, "
            "only 8 witnesses are built";
  } else {
    return false;
  }
  S.Seed = Seed.value_or(W.DefaultSeed);
  Out = std::move(W);
  return true;
}

const std::vector<MetricDef> &perfbench::perLayerMetrics() {
  static const std::vector<MetricDef> Metrics = {
      {"workloads.generate_s", "s"},
      {"trace.write_s", "s"},
      {"trace.parse_s", "s"},
      {"report.render_s", "s"},
      {"detect.call_s", "s"},
      {"detect.cop_enum_s", "s"},
      {"detect.closure_s", "s"},
      {"detect.wcp_s", "s"},
      {"detect.encode_s", "s"},
      {"detect.solve_s", "s"},
      {"detect.witness_s", "s"},
      {"detect.unattributed_s", "s"},
      {"detect.worker_busy_share", "ratio"},
      {"detect.cops", "count"},
      {"detect.solver_calls", "count"},
      {"detect.wcp_short_circuits", "count"},
      {"detect.races", "count"},
      {"detect.races_per_solver_call", "ratio"},
      {"atomicity.call_s", "s"},
      {"atomicity.violations", "count"},
      {"deadlock.call_s", "s"},
      {"deadlock.cycles", "count"},
      {"stream.feed_s", "s"},
      {"stream.ready_s", "s"},
      {"stream.step_p50_s", "s"},
      {"stream.finish_s", "s"},
      {"stream.late_over_early", "ratio"},
      {"server.windows_analyzed", "count"},
      {"server.backpressure_events", "count"},
      {"server.degraded_windows", "count"},
      {"loadgen.send_blocked_s", "s"},
      {"loadgen.late_p95_s", "s"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.spans", "count"},
  };
  return Metrics;
}

double perfbench::generateText(const WorkloadConfig &W, SpanRecorder &Spans,
                               LayerSamples *Layers, std::string &Text) {
  // Every repetition starts from a trimmed heap, as a fresh process does;
  // otherwise repetitions alternate between reusing freed memory and
  // faulting in new pages, and their times split into two modes.
  std::string().swap(Text);
  malloc_trim(0);
  Clock::time_point A = Clock::now();
  Trace T;
  {
    ScopedSpan S(Spans, "workloads.generate", 0);
    T = generateSynthetic(W.Spec);
  }
  Clock::time_point B = Clock::now();
  {
    ScopedSpan S(Spans, "trace.write", 0);
    Text = writeTraceText(T);
  }
  Clock::time_point C = Clock::now();
  if (Layers) {
    Layers->add("workloads.generate_s", secondsBetween(A, B));
    Layers->add("trace.write_s", secondsBetween(B, C));
  }
  return secondsBetween(A, C);
}

namespace {

/// Sum of the seconds of every phase node named \p Name.
double phaseSeconds(const PhaseSnapshot &Node, const char *Name) {
  double Sum = Node.Name == Name ? Node.Seconds : 0;
  for (const PhaseSnapshot &Child : Node.Children)
    Sum += phaseSeconds(Child, Name);
  return Sum;
}

} // namespace

void perfbench::recordDetectLayers(LayerSamples &Layers,
                                   const std::vector<DetectCall> &Calls,
                                   std::vector<std::string> &Notes) {
  static const std::pair<const char *, const char *> Phases[] = {
      {"cop-enum", "detect.cop_enum_s"}, {"closure", "detect.closure_s"},
      {"wcp", "detect.wcp_s"},           {"encode", "detect.encode_s"},
      {"solve", "detect.solve_s"},       {"witness", "detect.witness_s"}};
  double Call = 0, InTree = 0, Worker = 0, JobSeconds = 0;
  double Cops = 0, SolverCalls = 0, ShortCircuits = 0, Races = 0;
  std::map<std::string, double> PhaseSums;
  for (const DetectCall &C : Calls) {
    const PhaseSnapshot &Root = C.Stats->Telemetry.Phases;
    Call += C.Seconds;
    InTree += Root.Seconds;
    for (const auto &[Phase, Metric] : Phases)
      PhaseSums[Metric] += phaseSeconds(Root, Phase);
    Worker += phaseSeconds(Root, "encode") + phaseSeconds(Root, "solve") +
              phaseSeconds(Root, "witness");
    JobSeconds += C.Stats->Jobs * C.Seconds;
    Cops += static_cast<double>(C.Stats->Cops);
    SolverCalls += static_cast<double>(C.Stats->SolverCalls);
    ShortCircuits += static_cast<double>(C.Stats->WcpShortCircuits);
    std::string Driver = C.Driver;
    if (Driver == "detect")
      Races += static_cast<double>(C.Findings);
    else {
      Layers.add(Driver + ".call_s", C.Seconds);
      Layers.add(Driver == "atomicity" ? "atomicity.violations"
                                       : "deadlock.cycles",
                 static_cast<double>(C.Findings));
    }
    std::string Title = Driver + " phase tree (one op):\n";
    if (std::none_of(Notes.begin(), Notes.end(), [&](const std::string &N) {
          return N.rfind(Title, 0) == 0;
        })) {
      Root.renderInto(Title, 2);
      Notes.push_back(Title);
    }
  }
  Layers.add("detect.call_s", Call);
  for (const auto &[Metric, Seconds] : PhaseSums)
    Layers.add(Metric, Seconds);
  Layers.add("detect.unattributed_s", Call - InTree);
  Layers.add("detect.worker_busy_share",
             JobSeconds > 0 ? Worker / JobSeconds : 0);
  Layers.add("detect.cops", Cops);
  Layers.add("detect.solver_calls", SolverCalls);
  Layers.add("detect.wcp_short_circuits", ShortCircuits);
  Layers.add("detect.races", Races);
  Layers.add("detect.races_per_solver_call",
             SolverCalls > 0 ? Races / SolverCalls : 0);
}

namespace {

DetectorOptions batchOptions(const WorkloadConfig &W) {
  DetectorOptions D;
  D.WindowSize = W.Window;
  D.Jobs = W.Jobs;
  D.Tier = DetectTier::Hybrid;
  D.CollectWitnesses = true;
  return D;
}

/// One closed-loop operation: trace text to rendered report(s), gated.
/// Returns the op's latency; \p Layers (traced ops only) gets its
/// per-layer samples.
double batchOp(const WorkloadConfig &W, const std::string &Text, uint64_t Op,
               SpanRecorder &Spans, LayerSamples *Layers,
               std::vector<std::string> &Notes, Gate &G) {
  Clock::time_point Begin = Clock::now();
  ScopedSpan OpSpan(Spans, "op", Op);
  std::string Error;
  std::optional<Trace> T;
  double Parse = timed(Spans, "trace.parse", Op,
                       [&] { T = parseTraceText(Text, Error); });
  if (!T) {
    G.fail("parse: " + Error);
    return secondsBetween(Begin, Clock::now());
  }
  const DetectorOptions D = batchOptions(W);
  std::vector<DetectCall> Calls;
  double Render = 0;
  auto resetTelemetry = [&] {
    if (Layers)
      Telemetry::instance().reset();
  };
  // Results are kept alive until the layer samples are recorded.
  DetectionResult Races;
  AtomicityResult Atomicity;
  DeadlockResult Deadlocks;
  if (W.Kind == WorkloadKind::RaceBatch) {
    resetTelemetry();
    double Call = timed(Spans, "detect.races", Op, [&] {
      Races = detectRaces(*T, Technique::Maximal, D);
    });
    std::string Report;
    ReportRenderOptions RO;
    RO.WitnessTag = true;
    Render = timed(Spans, "report.render", Op, [&] {
      Report = renderRaceReport(*T, Technique::Maximal, Races, RO);
    });
    G.expectEqual("races", Races.raceCount(), W.expected(W.Spec.expectedRv()));
    G.expectEqual("unknown pairs", Races.Unknowns.size(), 0);
    for (const RaceReport &R : Races.Races)
      G.expectTrue("race witness valid", R.WitnessValid);
    G.expectTrue("race report header",
                 withoutWallTime(Report).rfind(
                     withoutWallTime(renderRaceHeader(
                         Technique::Maximal, Races.raceCount(), 0, RO)),
                     0) == 0);
    Calls.push_back({"detect", &Races.Stats, Call, Races.raceCount()});
  } else {
    resetTelemetry();
    double ACall = timed(Spans, "detect.atomicity", Op, [&] {
      Atomicity = detectAtomicityViolations(*T, D);
    });
    Calls.push_back({"atomicity", &Atomicity.Stats, ACall,
                     Atomicity.Violations.size()});
    resetTelemetry(); // one phase tree per driver
    double DCall = timed(Spans, "detect.deadlocks", Op, [&] {
      Deadlocks = detectDeadlocks(*T, D);
    });
    Calls.push_back(
        {"deadlock", &Deadlocks.Stats, DCall, Deadlocks.Deadlocks.size()});
    std::string Report;
    Render = timed(Spans, "report.render", Op, [&] {
      Report = renderAtomicityReport(Atomicity) +
               renderDeadlockReport(*T, Deadlocks);
    });
    G.expectEqual("atomicity violations", Atomicity.Violations.size(),
                  W.expected(W.Spec.expectedAtomicity()));
    G.expectEqual("deadlocks", Deadlocks.Deadlocks.size(),
                  W.expected(W.Spec.expectedDeadlocks()));
    G.expectEqual("unknown candidates",
                  Atomicity.Unknowns.size() + Deadlocks.Unknowns.size(), 0);
    for (const AtomicityReport &V : Atomicity.Violations)
      G.expectTrue("atomicity witness valid", V.WitnessValid);
    for (const DeadlockReport &R : Deadlocks.Deadlocks)
      G.expectTrue("deadlock witness valid", R.WitnessValid);
    G.expectTrue("property reports rendered", !Report.empty());
  }
  double Latency = secondsBetween(Begin, Clock::now());
  if (Layers) {
    Layers->add("trace.parse_s", Parse);
    Layers->add("report.render_s", Render);
    recordDetectLayers(*Layers, Calls, Notes);
  }
  return Latency;
}

} // namespace

RunResult perfbench::runBatch(const WorkloadConfig &W,
                              const RunOptions &Options,
                              SpanRecorder &Spans) {
  RunResult Run;
  LayerSamples *Layers = Options.Traced ? &Run.Layers : nullptr;
  // Host noise comes in bursts, so set-up is repeated before every
  // measured op (and topped up to SetupReps at the end) to spread its
  // samples over the run. Only the first repetition's text feeds the ops.
  auto setup = [&](std::string &Out) {
    ScopedSpan S(Spans, "setup", 0);
    Run.SetupSeconds.push_back(generateText(W, Spans, Layers, Out));
  };
  auto setupAgain = [&] {
    std::string Discard;
    setup(Discard);
  };
  std::string Text;
  setup(Text);

  // One warm-up op (thread pool start, allocator growth); not counted.
  bool Recording = Spans.enabled();
  Spans.setEnabled(false);
  {
    Gate Warm;
    std::vector<std::string> Unused;
    batchOp(W, Text, 0, Spans, nullptr, Unused, Warm);
  }

  // The traced run splits its time: untraced ops first (the overhead
  // baseline), then ops with spans and telemetry on.
  std::vector<double> Untraced;
  uint64_t Op = 1;
  auto loop = [&](double Seconds, bool Traced, std::vector<double> &Out) {
    Spans.setEnabled(Traced && Recording);
    Telemetry::setEnabled(Traced);
    Clock::time_point Start = Clock::now();
    do {
      setupAgain();
      Gate G;
      Out.push_back(batchOp(W, Text, Op++, Spans,
                            Traced ? &Run.Layers : nullptr, Run.Notes, G));
      ++Run.Attempted;
      if (!G.ok()) {
        ++Run.Failed;
        Run.Failures.push_back(G.why());
      }
    } while (secondsBetween(Start, Clock::now()) < Seconds);
    Telemetry::setEnabled(false);
  };
  if (Options.Traced) {
    loop(Options.Seconds / 2, false, Untraced);
    loop(Options.Seconds / 2, true, Run.Latencies);
    if (median(Untraced) > 0)
      Run.Layers.add("trace.overhead_ratio",
                     median(Run.Latencies) / median(Untraced));
  } else {
    loop(Options.Seconds, false, Run.Latencies);
  }
  Spans.setEnabled(Recording);
  while (Run.SetupSeconds.size() < SetupReps)
    setupAgain();
  Run.PeakRssMb = peakRssMb("self");
  return Run;
}

RunResult perfbench::runWorkload(const WorkloadConfig &W,
                                 const RunOptions &Options,
                                 SpanRecorder &Spans) {
  return W.Kind == WorkloadKind::Stream ? runStream(W, Options, Spans)
                                        : runBatch(W, Options, Spans);
}
