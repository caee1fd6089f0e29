//===- perfbench/harness/main.cpp - The layered benchmark's entry point ---===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME [--seed N] --seconds S --trace 0|1
///             --daemon PATH [--workdir DIR] [--spans FILE]
///
/// Runs one workload and prints human-readable lines (parameters, every
/// end-to-end metric by its workload-specific name with its unit, and in
/// the traced run the per-layer metrics, phase trees and span self
/// times), then, as the last line, one JSON object:
///
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
///
/// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
/// Exit code 0 after a completed run (failed operations are counted, not
/// fatal), 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Stats.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "--seconds S --trace 0|1 --daemon PATH [--workdir DIR] "
               "[--spans FILE]\n",
               Why);
  return 2;
}

void line(const char *Name, double Value, const char *Unit,
          const std::string &Detail = "") {
  std::printf("  %-28s %.6g %s%s\n", Name, Value, Unit,
              Detail.empty() ? "" : ("  (" + Detail + ")").c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, Daemon, WorkDir = ".", SpansPath;
  std::optional<uint64_t> Seed;
  double Seconds = 10;
  int Trace = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Value = Argv[++I];
    if (Arg == "--workload")
      Workload = Value;
    else if (Arg == "--seed") {
      Seed = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--seconds")
      Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Arg == "--trace")
      Trace = std::atoi(Value.c_str());
    else if (Arg == "--daemon")
      Daemon = Value;
    else if (Arg == "--workdir")
      WorkDir = Value;
    else if (Arg == "--spans")
      SpansPath = Value;
    else
      return usage(("unknown option " + Arg).c_str());
  }
  WorkloadConfig W;
  if (!workloadConfig(Workload, Seed, W))
    return usage(("unknown workload '" + Workload + "'").c_str());
  if (Seconds < 0 || (Trace != 0 && Trace != 1))
    return usage("--seconds must be >= 0 and --trace 0 or 1");
  if (W.Kind == WorkloadKind::Stream && Daemon.empty())
    return usage("the stream workload needs --daemon");

  RunOptions Options;
  Options.Seconds = Seconds;
  Options.Traced = Trace == 1;
  Options.DaemonPath = Daemon;
  Options.WorkDir = WorkDir;
  SpanRecorder Spans(Options.Traced);

  const rvp::SyntheticSpec &S = W.Spec;
  std::printf("perfbench workload=%s seed=%llu (default %llu) seconds=%g "
              "trace=%d\n",
              W.Name.c_str(), static_cast<unsigned long long>(W.Spec.Seed),
              static_cast<unsigned long long>(W.DefaultSeed), Seconds, Trace);
  std::printf("  why: %s\n", W.Why.c_str());
  std::printf("  spec: workers=%u events=%llu plain=%u qc-only=%u "
              "ordered=%u atomicity=%u deadlock-cycles=%u branch%%=%u "
              "sync%%=%u align=%u window=%u jobs=%u\n",
              S.Workers, static_cast<unsigned long long>(S.TargetEvents),
              S.PlainRaces, S.QcOnlyPairs, S.OrderedPairs, S.AtomicityPairs,
              S.DeadlockCycles, S.BranchPercent, S.SyncPercent,
              S.AlignWindow, W.Window, W.Jobs);

  RunResult R = runWorkload(W, Options, Spans);

  for (const std::string &Note : R.Notes)
    std::printf("%s%s", Note.c_str(), Note.back() == '\n' ? "" : "\n");
  for (size_t I = 0; I < R.Failures.size() && I < 5; ++I)
    std::printf("  FAILED op: %s\n", R.Failures[I].c_str());

  const bool Stream = W.Kind == WorkloadKind::Stream;
  const TailPercentile Tail = tailPercentile(R.Latencies);
  const double SetupS = median(R.SetupSeconds);
  const double P50 = median(R.Latencies);
  const double TailValue = percentile(R.Latencies, W.TailP);
  const std::string N = "n=" + std::to_string(R.Latencies.size());
  const double ErrorRate =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0;

  rvp::JsonObject Metrics;
  auto metric = [&](const char *Name, double Value, const char *Unit) {
    rvp::JsonObject M;
    M.field("value", Value).field("unit", Unit);
    Metrics.raw(Name, M.str());
  };
  if (!Options.Traced) {
    std::printf("end-to-end:\n");
    line("setup_s", SetupS, "s",
         rvp::formatString("median of %zu; min %.4g, max %.4g",
                           R.SetupSeconds.size(),
                           percentile(R.SetupSeconds, 0),
                           percentile(R.SetupSeconds, 100)));
    std::string TailName = rvp::formatString(
        "%s_p%g_s", Stream ? "window_latency" : "verdict", W.TailP);
    line(Stream ? "window_latency_p50_s" : "verdict_p50_s", P50, "s", N);
    line(TailName.c_str(), TailValue, "s",
         N + ", " + std::to_string(samplesBeyond(R.Latencies.size(), W.TailP)) +
             " beyond");
    std::printf("  highest percentile with >=10 samples beyond: p%g = %.6g s "
                "(%s)\n",
                Tail.P, Tail.Value, Tail.Supported ? "supported" : "too few");
    if (Stream)
      line("summary_latency_p50_s", median(R.SummaryLatencies), "s",
           "n=" + std::to_string(R.SummaryLatencies.size()));
    line("peak_rss_mb", R.PeakRssMb, "MB",
         Stream ? "rvpredictd VmHWM" : "benchmark VmHWM");
    line("error_rate", ErrorRate, "ratio",
         std::to_string(R.Failed) + "/" + std::to_string(R.Attempted));
    metric("setup_s", SetupS, "s");
    metric("latency_p50_s", P50, "s");
    metric("latency_tail_s", TailValue, "s");
    metric("peak_rss_mb", R.PeakRssMb, "MB");
  } else {
    R.Layers.add("trace.spans", static_cast<double>(Spans.spans().size()));
    std::printf("per-layer (traced run; medians per op):\n");
    for (const MetricDef &M : perLayerMetrics()) {
      bool Ran = R.Layers.has(M.Name);
      std::printf("  %-28s %.6g %s%s\n", M.Name, R.Layers.value(M.Name),
                  M.Unit, Ran ? "" : "  (layer not on this workload)");
      metric(M.Name, R.Layers.value(M.Name), M.Unit);
    }
    std::printf("span self time (s, summed over the run):\n");
    for (const auto &[Name, Self] : Spans.selfSeconds())
      std::printf("  %-28s %.6f\n", Name.c_str(), Self);
    std::printf("tracing overhead: traced/untraced latency p50 = %.4f\n",
                R.Layers.value("trace.overhead_ratio"));
    if (!SpansPath.empty() && !Spans.writeJsonLines(SpansPath))
      std::fprintf(stderr, "perfbench: cannot write %s\n", SpansPath.c_str());
  }

  rvp::JsonObject Result;
  Result.field("correct", R.Failed == 0 && R.Attempted > 0)
      .field("attempted", R.Attempted)
      .field("failed", R.Failed)
      .raw("metrics", Metrics.str());
  std::printf("%s\n", Result.str().c_str());
  return 0;
}
