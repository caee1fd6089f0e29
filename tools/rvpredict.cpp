//===- tools/rvpredict.cpp - Command-line driver ------------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The end-user tool: record MiniRV executions, predict races from traces,
/// and replay witnesses.
///
///   rvpredict record  <prog.rv> [--seed=N] [--schedule=rr|random]
///                     [--out=trace.txt]
///   rvpredict detect  <trace.txt|prog.rv> [--technique=rv|said|cp|hb]
///                     [--property=race|atomicity|deadlock] [--window=N]
///                     [--tier=vc|smt|hybrid] [--check-tiers]
///                     [--solver=idl|z3] [--budget=S] [--witness] [--stats]
///                     [--stats-json=out.json] [--trace-events=events.jsonl]
///                     [--profile=out.trace.json]
///                     [--retry-budgets=50ms,250ms,1s] [--checkpoint=dir]
///                     [--skip-bad-events] [--inject-faults=spec]
///   rvpredict replay  <prog.rv> --trace=trace.txt
///                     (re-runs the program following the trace's schedule)
///   rvpredict fuzz    [--seed=N]   (prints a random program)
///
/// Inputs ending in `.rv` are treated as MiniRV programs (recorded on the
/// fly); anything else is parsed as a trace in the text format.
///
/// Exit codes (see docs/ROBUSTNESS.md): 0 = clean run, nothing found;
/// 1 = the analysis found races / violations / deadlocks; 2 = usage errors
/// (bad flags, malformed values, unreadable inputs); 3 = internal errors
/// or a degraded run that left COPs undecided (an `unknown` section).
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticPrune.h"
#include "detect/Checkpoint.h"
#include "detect/Resilience.h"
#include "detect/WindowDriver.h"
#include "lang/Parser.h"
#include "runtime/Interpreter.h"
#include "support/CommandLine.h"
#include "support/FaultInjector.h"
#include "support/Profile.h"
#include "support/StringUtils.h"
#include "trace/Consistency.h"
#include "trace/TraceIO.h"
#include "workloads/Catalog.h"
#include "workloads/Fuzzer.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

using namespace rvp;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  // Injected read failures (docs/ROBUSTNESS.md): a short read truncates
  // the content mid-stream, a garble corrupts one byte in the middle.
  // Both surface downstream as parse diagnostics, never as crashes.
  if (FaultInjector::shouldFail(faults::TraceShortRead))
    Out.resize(Out.size() / 2);
  if (FaultInjector::shouldFail(faults::TraceGarble) && !Out.empty())
    Out[Out.size() / 2] = '\x01';
  return true;
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// Loads a trace from a program (recording it), a trace file, or a
/// catalog row (`bench:<name>`, e.g. `bench:highcop` — see
/// workloads/Catalog.h). When the input was a MiniRV program, \p
/// SourceOut (if non-null) receives its text, so callers can re-analyze
/// the program statically.
bool loadTrace(const std::string &Path, const OptionParser &Options,
               Trace &T, std::string *SourceOut = nullptr) {
  if (Path.rfind("bench:", 0) == 0) {
    std::string Name = Path.substr(6);
    std::optional<BenchmarkCase> Case = findBenchmark(Name);
    if (!Case) {
      std::fprintf(stderr, "error: unknown benchmark '%s'\n", Name.c_str());
      return false;
    }
    std::string Error;
    if (!benchmarkTrace(*Case, T, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return false;
    }
    if (SourceOut && Case->CaseKind == BenchmarkCase::Kind::Program)
      *SourceOut = Case->Source;
    return true;
  }
  std::string Content;
  if (!readFile(Path, Content)) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  if (endsWith(Path, ".rv")) {
    if (SourceOut)
      *SourceOut = Content;
    RunResult Run;
    std::string Error;
    uint64_t Seed = Options.getInt("seed", 1);
    RoundRobinScheduler RoundRobin(3);
    RandomScheduler Random(Seed);
    std::string Schedule = Options.getString("schedule", "random");
    Scheduler *S = nullptr;
    if (Schedule == "rr")
      S = &RoundRobin;
    else if (Schedule == "random")
      S = &Random;
    else {
      std::fprintf(stderr,
                   "error: unknown --schedule value '%s' "
                   "(valid values: rr, random)\n",
                   Schedule.c_str());
      return false;
    }
    if (!recordTrace(Content, T, Run, Error, S)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return false;
    }
    if (Run.Deadlocked)
      std::fprintf(stderr, "warning: the recorded execution deadlocked\n");
    return true;
  }
  TraceParseOptions ParseOpts;
  ParseOpts.FileName = Path;
  ParseOpts.SkipBadEvents = Options.getBool("skip-bad-events");
  TraceParser Parser(ParseOpts);
  if (!Parser.feed(Content) || !Parser.finish()) {
    std::fprintf(stderr, "error: %s\n", Parser.error().c_str());
    return false;
  }
  if (uint64_t Skipped = Parser.skippedEvents()) {
    std::fprintf(stderr,
                 "note: skipped %llu malformed or inconsistent event "
                 "line(s) in '%s'\n",
                 static_cast<unsigned long long>(Skipped), Path.c_str());
    if (Telemetry::enabled())
      MetricsRegistry::global().counter("trace.skipped_events").add(Skipped);
  }
  T = Parser.take();
  return true;
}

int cmdRecord(const OptionParser &Options) {
  if (Options.positional().size() < 2) {
    std::fprintf(stderr, "usage: rvpredict record <prog.rv>\n");
    return 1;
  }
  Trace T;
  if (!loadTrace(Options.positional()[1], Options, T))
    return 1;
  std::string Text = writeTraceText(T);
  std::string Out = Options.getString("out", "");
  if (Out.empty()) {
    std::fputs(Text.c_str(), stdout);
    return 0;
  }
  std::ofstream File(Out);
  if (!File) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Out.c_str());
    return 1;
  }
  File << Text;
  std::printf("wrote %llu events to %s\n",
              static_cast<unsigned long long>(T.size()), Out.c_str());
  return 0;
}

Technique parseTechnique(const std::string &Name) {
  if (Name == "hb")
    return Technique::Hb;
  if (Name == "cp")
    return Technique::Cp;
  if (Name == "said")
    return Technique::Said;
  return Technique::Maximal;
}

/// Writes \p Json (plus a trailing newline) to \p Path; "-" means stdout.
/// On stdout the object is preceded by a `##rvp:stats-json` marker line so
/// consumers can split the combined stream — detect's stdout is always
/// report, then stats table, then this block, then the `##rvp:trace-events`
/// block (docs/OBSERVABILITY.md).
bool writeJsonOutput(const std::string &Path, const std::string &Json) {
  if (Path == "-") {
    std::fputs("##rvp:stats-json\n", stdout);
    std::fputs(Json.c_str(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::ofstream File(Path);
  if (!File) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  File << Json << '\n';
  return true;
}

int cmdDetect(const OptionParser &Options) {
  if (Options.positional().size() < 2) {
    std::fprintf(stderr, "usage: rvpredict detect <trace.txt|prog.rv>\n");
    return ExitUsage;
  }

  // Flag validation up front: every malformed value is a usage error
  // (exit 2), diagnosed before any work starts.
  if (Options.hasOption("jobs") && Options.getInt("jobs", 0) == 0) {
    std::fprintf(stderr,
                 "error: explicit --jobs=0 is invalid; pass --jobs=N "
                 "(N >= 1) or omit the flag for one worker per hardware "
                 "thread\n");
    return ExitUsage;
  }
  if (Options.getInt("window", 10000) <= 0) {
    std::fprintf(stderr,
                 "error: --window must be a positive event count (got "
                 "%lld)\n",
                 static_cast<long long>(Options.getInt("window", 10000)));
    return ExitUsage;
  }
  std::vector<double> RetryBudgets;
  {
    std::string BudgetError;
    if (!parseBudgetList(Options.getString("retry-budgets", ""),
                         RetryBudgets, BudgetError)) {
      std::fprintf(stderr, "error: --retry-budgets: %s\n",
                   BudgetError.c_str());
      return ExitUsage;
    }
  }
  // Tier selection and its combination rules (docs/TIERS.md): the WCP
  // vector-clock tier covers races under the solver-backed techniques
  // only, and --check-tiers is meaningful exactly when both tiers run.
  const std::string TierName = Options.getString("tier", "hybrid");
  DetectTier Tier = DetectTier::Hybrid;
  if (TierName == "vc")
    Tier = DetectTier::Vc;
  else if (TierName == "smt")
    Tier = DetectTier::Smt;
  else if (TierName != "hybrid") {
    std::fprintf(stderr,
                 "error: --tier must be vc, smt, or hybrid (got '%s')\n",
                 TierName.c_str());
    return ExitUsage;
  }
  const bool CheckTiers = Options.getBool("check-tiers", false);
  const std::string PropertyName = Options.getString("property", "race");
  const std::string TechName = Options.getString("technique", "rv");
  if (CheckTiers && Tier != DetectTier::Hybrid) {
    std::fprintf(stderr,
                 "error: --check-tiers cross-validates the WCP tier "
                 "against the solver, so it requires --tier=hybrid (got "
                 "--tier=%s)\n",
                 TierName.c_str());
    return ExitUsage;
  }
  if (CheckTiers && (PropertyName != "race" ||
                     (TechName != "rv" && TechName != "said"))) {
    std::fprintf(stderr,
                 "error: --check-tiers needs the solver-backed race "
                 "pipeline (--property=race with --technique=rv or said)\n");
    return ExitUsage;
  }
  if (Tier == DetectTier::Vc && PropertyName != "race") {
    std::fprintf(stderr,
                 "error: --tier=vc detects races only; --property=%s "
                 "needs the solver (use --tier=hybrid or --tier=smt)\n",
                 PropertyName.c_str());
    return ExitUsage;
  }
  if (Tier == DetectTier::Vc && TechName != "rv" && TechName != "said") {
    std::fprintf(stderr,
                 "error: --tier=vc replaces the solver pipeline of the rv "
                 "and said techniques; --technique=%s has its own "
                 "dedicated detector (drop --tier=vc)\n",
                 TechName.c_str());
    return ExitUsage;
  }

  std::string StatsJsonPath = Options.getString("stats-json", "");
  std::string TraceEventsPath = Options.getString("trace-events", "");
  std::string ProfilePath = Options.getString("profile", "");
  if (ProfilePath == "-") {
    std::fprintf(stderr, "error: --profile needs a file path (the trace is "
                         "one JSON document, not a streamable block)\n");
    return ExitUsage;
  }
  // Telemetry must be on before loadTrace so interpreter counters from an
  // on-the-fly recording land in the same snapshot. --profile implies
  // telemetry: the phase timers it samples are telemetry-gated.
  TraceEventSink Sink;
  ProfileCollector Profiler;
  if (Options.getBool("stats") || !StatsJsonPath.empty() ||
      !TraceEventsPath.empty() || !ProfilePath.empty()) {
    Telemetry::setEnabled(true);
    Telemetry::instance().reset();
    if (!TraceEventsPath.empty()) {
      std::string Error;
      if (!Sink.open(TraceEventsPath, Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return ExitUsage;
      }
      Telemetry::instance().setSink(&Sink);
    }
    if (!ProfilePath.empty()) {
      ProfileCollector::setActive(&Profiler);
      Profiler.setThreadName("main");
    }
  }

  Trace T;
  std::string Source;
  if (!loadTrace(Options.positional()[1], Options, T, &Source))
    return ExitUsage;

  ConsistencyResult C = checkConsistency(T, ConsistencyMode::Fragment);
  if (!C.Ok) {
    std::fprintf(stderr, "error: inconsistent input trace: %s\n",
                 C.Message.c_str());
    return ExitUsage;
  }

  DetectorOptions Detect;
  Detect.WindowSize = static_cast<uint32_t>(Options.getInt("window", 10000));
  Detect.PerCopBudgetSeconds = Options.getDouble("budget", 60);
  Detect.SolverName = Options.getString("solver", "idl");
  // The vc tier never talks to a solver, so it cannot derive witness
  // models; everything it prints is an unwitnessed (weakly sound) report.
  Detect.CollectWitnesses =
      Tier != DetectTier::Vc && Options.getBool("witness", true);
  Detect.Tier = Tier;
  Detect.CheckTiers = CheckTiers;
  Detect.Jobs = static_cast<uint32_t>(Options.getInt("jobs", 0));
  Detect.Incremental = Options.getBool("incremental", true) &&
                       !Options.getBool("no-incremental", false);
  Detect.Slice = !Options.getBool("no-slice", false);
  Detect.RetryBudgets = RetryBudgets;
  Technique Tech = parseTechnique(Options.getString("technique", "rv"));

  // Checkpointing: the fingerprint pins the trace contents and every
  // result-relevant flag (jobs and no-slice excluded — reports are
  // identical for any value of either), so a checkpoint directory can
  // only resume the same analysis.
  Detect.CheckpointDir = Options.getString("checkpoint", "");
  if (!Detect.CheckpointDir.empty()) {
    std::string Flags = formatString(
        "technique=%s property=%s window=%u solver=%s budget=%g "
        "incremental=%d witness=%d static-prune=%d retry-budgets=%s "
        "tier=%s check-tiers=%d",
        Options.getString("technique", "rv").c_str(),
        Options.getString("property", "race").c_str(), Detect.WindowSize,
        Detect.SolverName.c_str(), Detect.PerCopBudgetSeconds,
        Detect.Incremental ? 1 : 0, Detect.CollectWitnesses ? 1 : 0,
        Options.getBool("static-prune") ? 1 : 0,
        Options.getString("retry-budgets", "").c_str(),
        tierName(Tier), CheckTiers ? 1 : 0);
    Detect.CheckpointFingerprint =
        checkpointHash(Flags, checkpointHash(writeTraceText(T)));
  }

  // Sound static COP pruning: needs the program source, so it only applies
  // to .rv inputs (a bare trace has no control-flow structure to analyze).
  std::unique_ptr<Program> PruneProgram;
  std::unique_ptr<StaticPruneOracle> Oracle;
  if (Options.getBool("static-prune")) {
    if (Source.empty()) {
      std::fprintf(stderr, "warning: --static-prune needs a .rv program "
                           "input; ignoring\n");
    } else {
      std::string ParseError;
      auto Parsed = parseProgram(Source, ParseError);
      if (!Parsed) {
        std::fprintf(stderr, "error: %s\n", ParseError.c_str());
        return 1;
      }
      PruneProgram = std::make_unique<Program>(std::move(*Parsed));
      Oracle = std::make_unique<StaticPruneOracle>(*PruneProgram);
      Oracle->bind(T);
      Detect.StaticPruner = Oracle.get();
      Detect.CfFold = Oracle.get();
      if (Telemetry::enabled())
        MetricsRegistry::global()
            .gauge("analysis.vars_thread_local")
            .set(Oracle->threadLocalVars());
    }
  }

  std::unique_ptr<WindowPolicy> Policy =
      PropertyName == "deadlock"    ? makeDeadlockPolicy(T, Detect)
      : PropertyName == "atomicity" ? makeAtomicityPolicy(T, Detect)
                                    : makeRacePolicy(T, Tech, Detect);
  runWindows(*Policy);
  ReportRenderOptions Render;
  Render.VcTier = Detect.Tier == DetectTier::Vc;
  Render.WitnessTag = Tech == Technique::Maximal && Detect.CollectWitnesses;
  Render.WitnessEvents = Options.getBool("witness");
  std::fputs(Policy->renderReport(Render).c_str(), stdout);

  // Both stats renderings draw from the same DetectionStats + telemetry
  // snapshot; a stats-json write failure is an internal error.
  const DetectionStats &Stats = Policy->State.Stats;
  const char *What =
      PropertyName == "race" ? techniqueName(Tech) : PropertyName.c_str();
  if (Options.getBool("stats"))
    std::fputs(renderStatsTable(Stats, What).c_str(), stdout);
  if (!StatsJsonPath.empty() &&
      !writeJsonOutput(StatsJsonPath, statsToJson(Stats, What)))
    return ExitInternal;
  // Detach the collector and write the Chrome/Perfetto trace after the
  // stats so the profile spans the whole run; a write failure is an
  // internal error (the analysis itself succeeded).
  if (!ProfilePath.empty()) {
    ProfileCollector::setActive(nullptr);
    std::string Error;
    if (!Profiler.writeFile(ProfilePath, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return ExitInternal;
    }
  }
  // A mismatch means the WCP tier called a pair racy that the solver
  // refuted — exactly the weak-soundness gap docs/TIERS.md describes. The
  // report above is still the solver's (check-tiers solves every COP), but
  // the run fails loudly so catalogs can gate on tier agreement.
  if (Stats.WcpMismatches) {
    std::fprintf(stderr,
                 "error: --check-tiers found %llu WCP-racy pair(s) the "
                 "solver refutes; the vc tier would over-report on this "
                 "trace (see docs/TIERS.md)\n",
                 static_cast<unsigned long long>(Stats.WcpMismatches));
    return ExitUsage;
  }
  // Exit code: a degraded run that left candidates undecided → 3 (the
  // report may be incomplete); findings → 1; clean and empty → 0.
  if (!Policy->State.Unknowns.empty())
    return ExitInternal;
  return Policy->numFindings() ? ExitFindings : ExitSuccess;
}

int cmdReplay(const OptionParser &Options) {
  if (Options.positional().size() < 2 || !Options.hasOption("trace")) {
    std::fprintf(stderr,
                 "usage: rvpredict replay <prog.rv> --trace=trace.txt\n");
    return 1;
  }
  std::string Source;
  if (!readFile(Options.positional()[1], Source)) {
    std::fprintf(stderr, "error: cannot open program\n");
    return 1;
  }
  std::string TraceText;
  if (!readFile(Options.getString("trace"), TraceText)) {
    std::fprintf(stderr, "error: cannot open trace\n");
    return 1;
  }
  std::string Error;
  auto Recorded = parseTraceText(TraceText, Error);
  if (!Recorded) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::vector<ThreadId> Schedule;
  for (const Event &E : Recorded->events())
    Schedule.push_back(E.Tid);

  Trace Replayed;
  RunResult Run;
  ReplayScheduler S(std::move(Schedule));
  if (!recordTrace(Source, Replayed, Run, Error, &S)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("replayed %llu events; schedule %s\n",
              static_cast<unsigned long long>(Replayed.size()),
              S.diverged() ? "DIVERGED" : "followed exactly");
  for (const RuntimeError &E : Run.Errors)
    std::printf("runtime error at line %u: %s\n", E.Line,
                E.Message.c_str());
  std::fputs(writeTraceText(Replayed).c_str(), stdout);
  return 0;
}

int cmdFuzz(const OptionParser &Options) {
  std::fputs(fuzzProgram(Options.getInt("seed", 1)).c_str(), stdout);
  return 0;
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Options(
      "rvpredict: maximal sound predictive race detection\n"
      "subcommands: record, detect, replay, fuzz");
  Options.addOption("seed", "schedule / fuzz seed", "1");
  Options.addOption("schedule", "rr or random", "random");
  Options.addOption("out", "output file for record", "");
  Options.addOption("technique", "rv, said, cp, or hb", "rv");
  Options.addOption("property", "race, atomicity, or deadlock", "race");
  Options.addOption("window", "window size in events", "10000");
  Options.addOption("solver", "idl or z3", "idl");
  Options.addOption("budget", "per-COP solver budget (s)", "60");
  Options.addOption("jobs",
                    "solver worker threads (0 = one per hardware thread)",
                    "0");
  Options.addOption("incremental",
                    "decide COPs through a persistent per-window solver "
                    "session (assumption-based incremental solving)",
                    "true");
  Options.addOption("no-slice",
                    "disable cone-of-influence slicing of the per-COP "
                    "encodings (debug cross-check; reports are identical "
                    "either way — see docs/ENCODER.md)",
                    "false");
  Options.addOption("no-incremental",
                    "alias for --incremental=false (legacy "
                    "fresh-solver-per-COP path)",
                    "false");
  Options.addOption("static-prune",
                    "skip COPs a static analysis of the program proves "
                    "race-free (.rv inputs only)",
                    "false");
  Options.addOption("tier",
                    "race pipeline tier: vc (WCP vector clocks only), smt "
                    "(solver only), or hybrid (WCP prunes and "
                    "short-circuits ahead of the solver)",
                    "hybrid");
  Options.addOption("check-tiers",
                    "cross-validate the WCP tier against the solver on "
                    "every COP; mismatches fail the run with exit 2 "
                    "(requires --tier=hybrid)",
                    "false");
  Options.addOption("witness", "print witness reorderings", "false");
  Options.addOption("stats", "print detection statistics", "false");
  Options.addOption("stats-json", "write stats as JSON ('-' for stdout)", "");
  Options.addOption("trace-events",
                    "write per-window/COP/solve JSONL events "
                    "('-' for stdout)",
                    "");
  Options.addOption("profile",
                    "write a Chrome/Perfetto trace of the run "
                    "(load in ui.perfetto.dev or chrome://tracing)",
                    "");
  Options.addOption("trace", "trace file for replay", "");
  Options.addOption("retry-budgets",
                    "escalating per-COP retry budgets for unknown results, "
                    "e.g. 50ms,250ms,1s (empty = no retries)",
                    "");
  Options.addOption("checkpoint",
                    "directory for per-window checkpoints; rerunning with "
                    "the same flags resumes from the last completed window",
                    "");
  Options.addOption("skip-bad-events",
                    "skip malformed trace lines (counted in stats) instead "
                    "of failing the parse",
                    "false");
  Options.addOption("inject-faults",
                    "deterministic fault injection spec, e.g. "
                    "'seed=7,solver.timeout=3,trace.garble' "
                    "(also read from RV_FAULTS)",
                    "");
  if (!Options.parse(Argc, Argv))
    return ExitUsage;
  // Fault injection configures process-wide before any subcommand runs;
  // the env var lets test harnesses reach child processes they don't exec
  // directly.
  std::string FaultSpec = Options.getString("inject-faults", "");
  if (FaultSpec.empty())
    if (const char *Env = std::getenv("RV_FAULTS"))
      FaultSpec = Env;
  if (!FaultSpec.empty()) {
    std::string FaultError;
    if (!FaultInjector::configure(FaultSpec, FaultError)) {
      std::fprintf(stderr, "error: bad --inject-faults spec: %s\n",
                   FaultError.c_str());
      return ExitUsage;
    }
  }
  if (Options.positional().empty()) {
    std::fprintf(stderr,
                 "usage: rvpredict <record|detect|replay|fuzz> ...\n");
    return ExitUsage;
  }
  const std::string &Cmd = Options.positional()[0];
  if (Cmd == "record")
    return cmdRecord(Options);
  if (Cmd == "detect")
    return cmdDetect(Options);
  if (Cmd == "replay")
    return cmdReplay(Options);
  if (Cmd == "fuzz")
    return cmdFuzz(Options);
  std::fprintf(stderr, "error: unknown subcommand '%s'\n", Cmd.c_str());
  return ExitUsage;
}
