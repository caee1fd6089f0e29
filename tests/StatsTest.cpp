//===- tests/StatsTest.cpp - Metrics registry and telemetry tests ---------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Atomicity.h"
#include "detect/Deadlock.h"
#include "detect/Detect.h"
#include "runtime/Interpreter.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

using namespace rvp;

namespace {

/// Turns telemetry on for one test and restores the disabled default,
/// leaving the global registry clean for whoever runs next.
class TelemetryGuard {
public:
  TelemetryGuard() {
    Telemetry::setEnabled(true);
    Telemetry::instance().reset();
  }
  ~TelemetryGuard() {
    Telemetry::instance().setSink(nullptr);
    Telemetry::instance().reset();
    Telemetry::setEnabled(false);
  }
};

TEST(Stats, CounterBasics) {
  MetricsRegistry Reg;
  Counter &C = Reg.counter("a.b");
  C.inc();
  C.add(4);
  EXPECT_EQ(C.value(), 5u);
  // Lookups by the same name return the same counter.
  Reg.counter("a.b").inc();
  EXPECT_EQ(C.value(), 6u);
  EXPECT_EQ(Reg.snapshot().counterValue("a.b"), 6u);
  EXPECT_EQ(Reg.snapshot().counterValue("missing"), 0u);
}

TEST(Stats, ResetKeepsReferencesValid) {
  MetricsRegistry Reg;
  Counter &C = Reg.counter("kept");
  Histogram &H = Reg.histogram("kept.hist");
  C.add(7);
  H.record(0.5);
  Reg.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(H.count(), 0u);
  // The cached references still feed the same registrations.
  C.inc();
  H.record(1.0);
  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counterValue("kept"), 1u);
  ASSERT_EQ(S.Histograms.size(), 1u);
  EXPECT_EQ(S.Histograms[0].second.Count, 1u);
}

TEST(Stats, HistogramSingleValueIsExactEverywhere) {
  Histogram H;
  H.record(0.25);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 1u);
  EXPECT_DOUBLE_EQ(S.Sum, 0.25);
  EXPECT_DOUBLE_EQ(S.Min, 0.25);
  EXPECT_DOUBLE_EQ(S.Max, 0.25);
  // Percentiles clamp to the observed range: exact for one value.
  EXPECT_DOUBLE_EQ(S.P50, 0.25);
  EXPECT_DOUBLE_EQ(S.P99, 0.25);
}

TEST(Stats, HistogramPercentilesOnKnownDistribution) {
  Histogram H;
  // 1000 evenly spaced values in (0, 1]: the q-percentile is ~q.
  for (int I = 1; I <= 1000; ++I)
    H.record(I / 1000.0);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 1000u);
  EXPECT_NEAR(S.Sum, 500.5, 1e-9);
  EXPECT_DOUBLE_EQ(S.Min, 0.001);
  EXPECT_DOUBLE_EQ(S.Max, 1.0);
  // Log-spaced buckets bound the relative error by the 30% growth factor.
  EXPECT_NEAR(S.P50, 0.5, 0.5 * 0.3);
  EXPECT_NEAR(S.P90, 0.9, 0.9 * 0.3);
  EXPECT_NEAR(S.P99, 0.99, 0.99 * 0.3);
  EXPECT_LE(S.P50, S.P90);
  EXPECT_LE(S.P90, S.P99);
  EXPECT_LE(S.P99, S.Max);
}

TEST(Stats, HistogramAllInOneBucketStaysInObservedRange) {
  // Many samples landing in a single log bucket: interpolation across the
  // full bucket width would report quantiles outside [min, max], so the
  // estimator must tighten the bucket to the observed range.
  Histogram H;
  for (int I = 0; I < 100; ++I)
    H.record(0.105); // one bucket holds every sample
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 100u);
  for (double P : {S.P50, S.P90, S.P99}) {
    EXPECT_GE(P, S.Min);
    EXPECT_LE(P, S.Max);
  }
  EXPECT_DOUBLE_EQ(S.P50, 0.105);
  EXPECT_DOUBLE_EQ(S.P99, 0.105);
}

TEST(Stats, HistogramTwoDistinctValuesBracketPercentiles) {
  Histogram H;
  H.record(0.001);
  H.record(10.0);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 2u);
  EXPECT_DOUBLE_EQ(S.Min, 0.001);
  EXPECT_DOUBLE_EQ(S.Max, 10.0);
  for (double P : {S.P50, S.P90, S.P99}) {
    EXPECT_GE(P, S.Min);
    EXPECT_LE(P, S.Max);
  }
  EXPECT_LE(S.P50, S.P90);
  EXPECT_LE(S.P90, S.P99);
}

TEST(Stats, HistogramOverflowBucketClampsToMax) {
  // Values beyond the last bucket bound land in the overflow bucket,
  // whose upper edge is +inf: quantiles must come back as the observed
  // max, never inf.
  Histogram H;
  double Huge = 1e12;
  for (int I = 0; I < 10; ++I)
    H.record(Huge);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 10u);
  EXPECT_DOUBLE_EQ(S.P50, Huge);
  EXPECT_DOUBLE_EQ(S.P99, Huge);
}

TEST(Stats, HistogramEmptyIsAllZero) {
  Histogram H;
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_DOUBLE_EQ(S.P50, 0.0);
  EXPECT_DOUBLE_EQ(H.percentile(0.99), 0.0);
}

TEST(Stats, ConcurrentIncrementsAreExact) {
  // Counters, gauges, and histograms are shared across solver workers;
  // concurrent updates and registry lookups must neither lose increments
  // nor tear. 4 threads x 10k operations each.
  MetricsRegistry Reg;
  Counter &C = Reg.counter("par.count");
  Histogram &H = Reg.histogram("par.hist");
  constexpr int Threads = 4;
  constexpr int PerThread = 10000;
  std::vector<std::thread> Workers;
  for (int W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      for (int I = 0; I < PerThread; ++I) {
        C.inc();
        Reg.counter("par.count2").add(2);
        H.record((I % 100 + 1) / 100.0);
        Reg.gauge("par.gauge").set(static_cast<double>(W));
        if (I % 1000 == 0)
          (void)Reg.snapshot(); // concurrent readers are safe too
      }
    });
  for (std::thread &Worker : Workers)
    Worker.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(Reg.counter("par.count2").value(),
            static_cast<uint64_t>(Threads) * PerThread * 2);
  EXPECT_EQ(H.count(), static_cast<uint64_t>(Threads) * PerThread);
  double G = Reg.gauge("par.gauge").value();
  EXPECT_GE(G, 0.0);
  EXPECT_LT(G, Threads);
}

TEST(Stats, BucketBoundsAreMonotone) {
  for (size_t I = 1; I < Histogram::NumBuckets; ++I)
    EXPECT_GT(Histogram::bucketUpperBound(I),
              Histogram::bucketUpperBound(I - 1));
}

TEST(Stats, JsonEscape) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(jsonEscape("line\nbreak\tand\r"), "line\\nbreak\\tand\\r");
  EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
  // Location strings like "Account.java:42" pass through unchanged.
  EXPECT_EQ(jsonEscape("Account.java:42"), "Account.java:42");
}

TEST(Stats, JsonObjectBuildsValidObject) {
  JsonObject O;
  O.field("n", static_cast<uint64_t>(3))
      .field("x", 1.5)
      .field("ok", true)
      .field("s", "he said \"hi\"")
      .raw("nested", "{\"a\":1}");
  EXPECT_EQ(O.str(), "{\"n\":3,\"x\":1.5,\"ok\":true,"
                     "\"s\":\"he said \\\"hi\\\"\",\"nested\":{\"a\":1}}");
}

TEST(Stats, MetricsToJsonShape) {
  MetricsRegistry Reg;
  Reg.counter("c").add(2);
  Reg.gauge("g").set(0.5);
  Reg.histogram("h").record(1.0);
  std::string Json = metricsToJson(Reg.snapshot());
  EXPECT_NE(Json.find("\"counters\":{\"c\":2}"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"gauges\":{\"g\":0.5}"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"h\":{\"count\":1"), std::string::npos) << Json;
}

TEST(Telemetry, PhaseTreeNesting) {
  PhaseTree Tree;
  Tree.enter("outer");
  Tree.enter("inner");
  Tree.exit(0.25);
  Tree.enter("inner");
  Tree.exit(0.25);
  Tree.exit(1.0);
  EXPECT_TRUE(Tree.atRoot());

  PhaseSnapshot Root = Tree.snapshot();
  EXPECT_EQ(Root.Name, "total");
  EXPECT_DOUBLE_EQ(Root.Seconds, 1.0);
  const PhaseSnapshot *Outer = Root.find("outer");
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->Count, 1u);
  const PhaseSnapshot *Inner = Root.find("inner");
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Count, 2u) << "re-entered phases accumulate in one node";
  EXPECT_DOUBLE_EQ(Inner->Seconds, 0.5);
  EXPECT_LE(Outer->childSeconds(), Outer->Seconds);
  EXPECT_EQ(Root.find("nope"), nullptr);
}

TEST(Telemetry, ScopedPhaseTimerRespectsEnableFlag) {
  {
    TelemetryGuard Guard;
    {
      ScopedPhaseTimer Outer("t-outer");
      ScopedPhaseTimer Inner("t-inner");
    }
    PhaseSnapshot Root = Telemetry::instance().phases().snapshot();
    ASSERT_NE(Root.find("t-outer"), nullptr);
    EXPECT_NE(Root.find("t-inner"), nullptr);
  }
  // Disabled: no phases recorded at all.
  {
    ScopedPhaseTimer Off("t-off");
  }
  PhaseSnapshot Root = Telemetry::instance().phases().snapshot();
  EXPECT_EQ(Root.find("t-off"), nullptr);
}

TEST(Telemetry, SinkWritesOneLinePerEvent) {
  TelemetryGuard Guard;
  std::string Path = testing::TempDir() + "rvp_stats_sink_test.jsonl";
  TraceEventSink Sink;
  std::string Error;
  ASSERT_TRUE(Sink.open(Path, Error)) << Error;
  JsonObject A;
  A.field("type", "window").field("index", static_cast<uint64_t>(0));
  Sink.write(A);
  JsonObject B;
  B.field("type", "cop").field("loc", "a\"b");
  Sink.write(B);
  EXPECT_EQ(Sink.eventsWritten(), 2u);
  Sink.close();

  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[256];
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), F), nullptr);
  EXPECT_STREQ(Buf, "{\"type\":\"window\",\"index\":0}\n");
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), F), nullptr);
  EXPECT_STREQ(Buf, "{\"type\":\"cop\",\"loc\":\"a\\\"b\"}\n");
  std::fclose(F);
  std::remove(Path.c_str());
}

/// The README quickstart program: one sync'd write racing a bare write.
constexpr const char *RacyProgram = R"(
shared x;
lock l;
thread t {
  sync l { x = 1; }
}
main {
  spawn t;
  x = 2;
  join t;
}
)";

TEST(Telemetry, DetectRacesCapturesSnapshot) {
  TelemetryGuard Guard;
  Trace T;
  RunResult Run;
  std::string Error;
  ASSERT_TRUE(recordTrace(RacyProgram, T, Run, Error)) << Error;

  DetectorOptions Options;
  DetectionResult R = detectRaces(T, Technique::Maximal, Options);
  ASSERT_TRUE(R.Stats.Telemetry.Captured);

  // Interpreter counters recorded before detection survive the snapshot.
  const MetricsSnapshot &M = R.Stats.Telemetry.Metrics;
  EXPECT_GT(M.counterValue("runtime.scheduler_steps"), 0u);
  EXPECT_GT(M.counterValue("runtime.events.write"), 0u);
  EXPECT_EQ(M.counterValue("detect.windows"), R.Stats.Windows);
  EXPECT_EQ(M.counterValue("detect.races"), R.raceCount());
  EXPECT_EQ(M.counterValue("solver.calls"), R.Stats.SolverCalls);

  // Phase hierarchy: detect > window >= cop-enum + quick-check + ...
  const PhaseSnapshot &Root = R.Stats.Telemetry.Phases;
  const PhaseSnapshot *Detect = Root.find("detect");
  ASSERT_NE(Detect, nullptr);
  EXPECT_EQ(Detect->Count, 1u);
  const PhaseSnapshot *Window = Detect->Children.empty()
                                    ? nullptr
                                    : Root.find("window");
  ASSERT_NE(Window, nullptr);
  EXPECT_EQ(Window->Count, R.Stats.Windows);
  EXPECT_LE(Window->Seconds, Detect->Seconds + 1e-6);
  EXPECT_LE(Window->childSeconds(), Window->Seconds + 1e-6);

  // Both renderings carry the Table-1 fields.
  std::string Table = renderStatsTable(R.Stats, "RV");
  EXPECT_NE(Table.find("windows="), std::string::npos);
  EXPECT_NE(Table.find("detect"), std::string::npos);
  std::string Json = statsToJson(R.Stats, "RV");
  for (const char *Key : {"\"windows\"", "\"cops\"", "\"qc_passed\"",
                          "\"solver_calls\"", "\"solver_timeouts\"",
                          "\"metrics\"", "\"phases\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key << " in " << Json;
}

TEST(Telemetry, DisabledRunsCaptureNothing) {
  Trace T;
  RunResult Run;
  std::string Error;
  ASSERT_TRUE(recordTrace(RacyProgram, T, Run, Error)) << Error;
  DetectionResult R = detectRaces(T, Technique::Maximal, DetectorOptions());
  EXPECT_FALSE(R.Stats.Telemetry.Captured);
  std::string Json = statsToJson(R.Stats, "RV");
  EXPECT_EQ(Json.find("\"phases\""), std::string::npos);
  // The classic one-line summary is still rendered.
  EXPECT_NE(renderStatsTable(R.Stats, "RV").find("windows="),
            std::string::npos);
}

/// A trace with races, an atomicity violation, and a deadlock, so every
/// property has candidates to solve and witnesses to build.
Trace allPropertiesTrace() {
  SyntheticSpec Spec;
  Spec.Workers = 4;
  Spec.TargetEvents = 3000;
  Spec.PlainRaces = 2;
  Spec.AtomicityPairs = 1;
  Spec.DeadlockCycles = 1;
  return generateSynthetic(Spec);
}

TEST(Telemetry, AtomicityAndDeadlockRecordTheCopLoopPhases) {
  TelemetryGuard Guard;
  Trace T = allPropertiesTrace();
  DetectorOptions Options;
  AtomicityResult A = detectAtomicityViolations(T, Options);
  DeadlockResult D = detectDeadlocks(T, Options);
  ASSERT_FALSE(A.Violations.empty());
  ASSERT_FALSE(D.Deadlocks.empty());
  for (const auto &[Top, Stats] :
       {std::pair<const char *, const DetectionStats *>{"atomicity",
                                                        &A.Stats},
        {"deadlock", &D.Stats}}) {
    ASSERT_TRUE(Stats->Telemetry.Captured) << Top;
    const PhaseSnapshot *Node = Stats->Telemetry.Phases.find(Top);
    ASSERT_NE(Node, nullptr) << Top;
    for (const char *Phase :
         {"cop-enum", "closure", "encode", "solve", "witness"})
      EXPECT_NE(Node->find(Phase), nullptr) << Top << " lacks " << Phase;
  }
}

TEST(Telemetry, JobsOneNeverSolvesSpeculatively) {
  // Without a pool the COP loop solves a candidate only after its
  // signature check, so no solve is ever discarded.
  Trace T = allPropertiesTrace();
  DetectorOptions Options;
  Options.Jobs = 1;
  Options.Tier = DetectTier::Smt; // every race candidate reaches the solver
  auto speculative = [](const DetectionStats &Stats) {
    for (const auto &[Name, Value] : Stats.Telemetry.Metrics.Counters)
      if (Name == "detect.speculative_solves")
        return static_cast<int64_t>(Value);
    return int64_t{-1}; // the counter must be present
  };
  {
    TelemetryGuard Guard;
    DetectionResult R = detectRaces(T, Technique::Maximal, Options);
    EXPECT_GT(R.Stats.SolverCalls, 0u);
    EXPECT_EQ(speculative(R.Stats), 0);
  }
  {
    TelemetryGuard Guard;
    AtomicityResult R = detectAtomicityViolations(T, Options);
    EXPECT_GT(R.Stats.SolverCalls, 0u);
    EXPECT_EQ(speculative(R.Stats), 0);
  }
  {
    TelemetryGuard Guard;
    DeadlockResult R = detectDeadlocks(T, Options);
    EXPECT_GT(R.Stats.SolverCalls, 0u);
    EXPECT_EQ(speculative(R.Stats), 0);
  }
}

} // namespace
