//===- perfbench/tests/perfbench_test.cpp - The benchmark's own tests -----===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench_test --daemon PATH [--workdir DIR]
///
/// Unit tests of the percentile helper, span self times and the
/// correctness gate, then a short smoke pass of every workload (one
/// operation or one round each) on two seeds, which also checks that the
/// expected counts hold beyond the default seed, and a check that a daemon
/// exiting non-zero fails the run. Exit code 0 when every check passes.
///
//===----------------------------------------------------------------------===//

#include "Gate.h"
#include "Workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Cond, const std::string &What) {
  std::printf("%s %s\n", Cond ? "ok  " : "FAIL", What.c_str());
  if (!Cond)
    ++Failures;
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 0; I < N; ++I)
    V.push_back(static_cast<double>(N - I)); // unsorted on purpose
  return V;
}

void testPercentiles() {
  check(near(percentile({}, 50), 0), "percentile of nothing is 0");
  check(near(percentile({3, 1, 2}, 50), 2), "median of 3 samples");
  check(near(percentile({1, 2, 3, 4}, 50), 2.5), "median interpolates");
  check(near(percentile(iota(101), 95), 96), "p95 of 1..101");

  TailPercentile T = tailPercentile(iota(1000));
  check(T.Supported && near(T.P, 99) && T.Beyond == 10 && T.Count == 1000,
        "1000 samples: p99 has exactly 10 beyond");
  T = tailPercentile(iota(240));
  check(T.Supported && near(T.P, 95) && T.Beyond == 12,
        "240 samples: p95 (p99 has only 2 beyond)");
  T = tailPercentile(iota(45));
  check(T.Supported && near(T.P, 75) && T.Beyond == 11 && T.Count == 45,
        "45 samples: p75");
  T = tailPercentile(iota(20));
  check(T.Supported && near(T.P, 50) && T.Beyond == 10, "20 samples: p50");
  T = tailPercentile(iota(19));
  check(!T.Supported && near(T.P, 50) && T.Count == 19,
        "19 samples: no percentile has 10 beyond");
}

void testSpans() {
  SpanRecorder R(true);
  Clock::time_point T0 = Clock::now();
  int64_t Outer = R.begin("op", 7);
  R.record("child", 7, T0, T0 + std::chrono::milliseconds(5));
  R.end(Outer);
  check(R.spans().size() == 2 && R.spans()[1].Parent == Outer &&
            R.spans()[1].Op == 7,
        "spans record parent and op id");
  auto Self = R.selfSeconds();
  double OuterDur = R.spans()[0].End - R.spans()[0].Start;
  check(near(Self["op"], OuterDur - 0.005) && near(Self["child"], 0.005),
        "self time subtracts direct children");
  SpanRecorder Off(false);
  Off.end(Off.begin("op", 1));
  check(Off.spans().empty(), "a disabled recorder records nothing");
}

void testGate() {
  Gate G;
  G.expectEqual("races", 40, 40);
  G.expectSameReport("summary", "RV: 2 race(s) in 0.10s\n  race a\n",
                     "RV: 2 race(s) in 3.52s\n  race a\n");
  check(G.ok(), "gate passes equal counts and wall-time-only differences");
  G.expectSameReport("summary", "RV: 2 race(s) in 0.10s\n  race a\n",
                     "RV: 2 race(s) in 0.10s\n  race b\n");
  G.expectEqual("races", 41, 40);
  check(!G.ok() && G.why().find("summary") == 0,
        "gate flags a differing report and keeps the first diagnostic");
}

RunResult smoke(const std::string &Name, uint64_t Seed, int32_t Skew,
                const RunOptions &Base) {
  WorkloadConfig W;
  workloadConfig(Name, Seed, W);
  W.ExpectedSkew = Skew;
  // A fast schedule (same frames, 20x the cadence): the smoke pass checks
  // correctness, not latency.
  W.EventsPerSecond *= 20;
  W.CadenceSeconds /= 20;
  SpanRecorder Spans(false);
  return runWorkload(W, Base, Spans);
}

void testWorkloads(const RunOptions &Base) {
  for (const std::string &Name : workloadNames()) {
    for (uint64_t Seed : {107ull, 2024ull}) {
      RunResult R = smoke(Name, Seed, 0, Base);
      check(R.Attempted >= 1 && R.Failed == 0 && !R.Latencies.empty() &&
                R.PeakRssMb > 0,
            "smoke " + Name + " seed " + std::to_string(Seed) +
                (R.Failures.empty() ? "" : ": " + R.Failures.front()));
    }
    RunResult Wrong = smoke(Name, 107, 1, Base);
    check(Wrong.Attempted >= 1 && Wrong.Failed == Wrong.Attempted &&
              !Wrong.Failures.empty(),
          "gate fails every " + Name + " op when the expected count is off " +
              "by one (" +
              (Wrong.Failures.empty() ? "" : Wrong.Failures.front()) + ")");
  }
}

/// A stand-in daemon that binds nothing and exits 3 on SIGTERM: its
/// sessions are refused, and every stop must count as a failure.
void testDaemonExitGated(RunOptions Base) {
  Base.DaemonPath = Base.WorkDir + "/exits-3.sh";
  {
    std::ofstream Script(Base.DaemonPath);
    Script << "#!/bin/sh\n"
              "trap 'exit 3' TERM\n"
              "echo 'rvpredictd: listening on nothing' >&2\n"
              "while :; do sleep 0.05; done\n";
  }
  ::chmod(Base.DaemonPath.c_str(), 0755);
  RunResult R = smoke("stream-eclipse", 107, 0, Base);
  size_t Undrained = std::count(R.Failures.begin(), R.Failures.end(),
                                "rvpredictd did not drain and exit 0");
  check(R.Failed == R.Attempted && Undrained >= SetupReps,
        "every daemon stop that does not exit 0 is a failed operation (" +
            std::to_string(Undrained) + " of " +
            std::to_string(R.Attempted) + ")");
  std::remove(Base.DaemonPath.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Base;
  Base.Seconds = 0; // one op (batch) or one round (stream)
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Arg = Argv[I];
    if (Arg == "--daemon")
      Base.DaemonPath = Argv[I + 1];
    else if (Arg == "--workdir")
      Base.WorkDir = Argv[I + 1];
  }
  testPercentiles();
  testSpans();
  testGate();
  if (Base.DaemonPath.empty())
    check(false, "--daemon PATH is required for the workload smoke pass");
  else
    testWorkloads(Base);
  testDaemonExitGated(Base);
  std::printf("%d failure(s)\n", Failures);
  return Failures == 0 ? 0 : 1;
}
