//===- tests/ResilienceTest.cpp - Degradation & checkpoint tests -----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The robustness layer (docs/ROBUSTNESS.md): fault-spec parsing, the
/// retry-budget ladder, checkpoint framing, and — with injected faults —
/// the end-to-end soundness guarantees: degraded runs report a subset of
/// the fault-free races, with the difference fully covered by the unknown
/// section, and witnesses re-derived after a session fallback validate
/// identically.
///
//===----------------------------------------------------------------------===//

#include "detect/Resilience.h"

#include "detect/Atomicity.h"
#include "detect/Checkpoint.h"
#include "detect/Deadlock.h"
#include "detect/Detect.h"
#include "support/FaultInjector.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <string>

using namespace rvp;

namespace {

/// Clears the process-wide fault configuration when a test exits, so a
/// failing ASSERT cannot leak faults into later tests.
struct FaultGuard {
  FaultGuard() { FaultInjector::reset(); }
  ~FaultGuard() { FaultInjector::reset(); }
};

void configureOrDie(const std::string &Spec) {
  std::string Error;
  ASSERT_TRUE(FaultInjector::configure(Spec, Error)) << Error;
}

/// Figure 4 of the paper: one real race (f3,f10) under Maximal.
Trace figure4Trace() {
  TraceBuilder B;
  B.fork("t1", "t2", "f1");
  B.acquire("t1", "l", "f2");
  B.write("t1", "x", 1, "f3");
  B.write("t1", "y", 1, "f4");
  B.release("t1", "l", "f5");
  B.begin("t2", "f6");
  B.acquire("t2", "l", "f7");
  B.read("t2", "y", 1, "f8");
  B.release("t2", "l", "f9");
  B.read("t2", "x", 1, "f10");
  B.branch("t2", "f11");
  B.write("t2", "z", 1, "f12");
  B.end("t2", "f13");
  B.join("t1", "t2", "f14");
  B.read("t1", "z", 1, "f15");
  return B.build();
}

/// A per-test checkpoint directory, wiped so snapshots from an earlier
/// ctest invocation cannot leak into this one.
std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + Name;
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  return Dir;
}

/// Variable + unordered loc pair — the cross-run identity of a finding,
/// stable between race reports and unknown entries.
std::string keyOf(const std::string &Var, const std::string &LocA,
                  const std::string &LocB) {
  return Var + "|" + std::min(LocA, LocB) + "|" + std::max(LocA, LocB);
}

} // namespace

//===----------------------------------------------------------------------===//
// Fault spec parsing and triggers
//===----------------------------------------------------------------------===//

TEST(FaultSpec, NthTriggerFiresExactlyOnce) {
  FaultGuard Guard;
  configureOrDie("solver.timeout=2");
  EXPECT_FALSE(FaultInjector::shouldFail(faults::SolverTimeout));
  EXPECT_TRUE(FaultInjector::shouldFail(faults::SolverTimeout));
  EXPECT_FALSE(FaultInjector::shouldFail(faults::SolverTimeout));
  EXPECT_EQ(FaultInjector::instance().hits(faults::SolverTimeout), 3u);
  EXPECT_EQ(FaultInjector::instance().fired(faults::SolverTimeout), 1u);
}

TEST(FaultSpec, FromNthTriggerFiresFromThereOn) {
  FaultGuard Guard;
  configureOrDie("session.corrupt=2+");
  EXPECT_FALSE(FaultInjector::shouldFail(faults::SessionCorrupt));
  EXPECT_TRUE(FaultInjector::shouldFail(faults::SessionCorrupt));
  EXPECT_TRUE(FaultInjector::shouldFail(faults::SessionCorrupt));
}

TEST(FaultSpec, BareSiteFiresAlways) {
  FaultGuard Guard;
  configureOrDie("trace.garble");
  EXPECT_TRUE(FaultInjector::shouldFail(faults::TraceGarble));
  EXPECT_TRUE(FaultInjector::shouldFail(faults::TraceGarble));
  // Unrelated sites are untouched.
  EXPECT_FALSE(FaultInjector::shouldFail(faults::SolverTimeout));
}

TEST(FaultSpec, PercentTriggerIsDeterministicPerSeed) {
  FaultGuard Guard;
  auto sample = [] {
    std::vector<bool> Out;
    for (int I = 0; I < 64; ++I)
      Out.push_back(FaultInjector::shouldFail(faults::SolverTimeout));
    return Out;
  };
  configureOrDie("seed=7,solver.timeout=50%");
  std::vector<bool> First = sample();
  configureOrDie("seed=7,solver.timeout=50%");
  EXPECT_EQ(sample(), First);
  EXPECT_TRUE(std::find(First.begin(), First.end(), true) != First.end());
  EXPECT_TRUE(std::find(First.begin(), First.end(), false) != First.end());
}

TEST(FaultSpec, RejectsUnknownSiteAndMalformedTrigger) {
  FaultGuard Guard;
  std::string Error;
  EXPECT_FALSE(FaultInjector::configure("no.such.site", Error));
  EXPECT_NE(Error.find("no.such.site"), std::string::npos) << Error;
  EXPECT_FALSE(FaultInjector::configure("solver.timeout=abc", Error));
  EXPECT_FALSE(FaultInjector::configure("solver.timeout=", Error));
}

TEST(FaultSpec, EmptySpecDisablesInjection) {
  FaultGuard Guard;
  configureOrDie("solver.timeout");
  EXPECT_TRUE(FaultInjector::enabled());
  configureOrDie("");
  EXPECT_FALSE(FaultInjector::enabled());
  EXPECT_FALSE(FaultInjector::shouldFail(faults::SolverTimeout));
}

TEST(FaultSpec, KnownSitesCoverTheCatalog) {
  const std::vector<std::string> &Sites = knownFaultSites();
  for (const char *Site :
       {faults::SolverTimeout, faults::SessionCorrupt, faults::Z3Unavailable,
        faults::SatDbAlloc, faults::TraceShortRead, faults::TraceGarble,
        faults::DetectAbort})
    EXPECT_TRUE(std::find(Sites.begin(), Sites.end(), Site) != Sites.end())
        << Site;
}

//===----------------------------------------------------------------------===//
// Retry budget parsing
//===----------------------------------------------------------------------===//

TEST(BudgetList, ParsesSuffixes) {
  std::vector<double> Out;
  std::string Error;
  ASSERT_TRUE(parseBudgetList("50ms,250ms,1s", Out, Error)) << Error;
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_DOUBLE_EQ(Out[0], 0.05);
  EXPECT_DOUBLE_EQ(Out[1], 0.25);
  EXPECT_DOUBLE_EQ(Out[2], 1.0);
  ASSERT_TRUE(parseBudgetList("100us", Out, Error)) << Error;
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_DOUBLE_EQ(Out[0], 1e-4);
  // Bare numbers mean seconds; an empty spec is an empty ladder.
  ASSERT_TRUE(parseBudgetList(" 2 ", Out, Error)) << Error;
  EXPECT_DOUBLE_EQ(Out[0], 2.0);
  ASSERT_TRUE(parseBudgetList("", Out, Error)) << Error;
  EXPECT_TRUE(Out.empty());
}

TEST(BudgetList, RejectsMalformedEntries) {
  std::vector<double> Out;
  std::string Error;
  for (const char *Bad : {"fast", "-1s", "0ms", "50ms,,1s", "1s,nope"}) {
    EXPECT_FALSE(parseBudgetList(Bad, Out, Error)) << Bad;
    EXPECT_TRUE(Out.empty()) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Checkpoint framing
//===----------------------------------------------------------------------===//

TEST(Checkpoint, HashIsStableAndSeedChained) {
  EXPECT_EQ(checkpointHash("abc"), checkpointHash("abc"));
  EXPECT_NE(checkpointHash("abc"), checkpointHash("abd"));
  // Chaining folds both inputs in: hash(flags, hash(trace)).
  EXPECT_NE(checkpointHash("abc", checkpointHash("x")),
            checkpointHash("abc", checkpointHash("y")));
}

TEST(Checkpoint, StoreRoundTripsNewestSnapshot) {
  std::string Dir = freshDir("rvp_ckpt_roundtrip");
  CheckpointStore Store(Dir, /*Fingerprint=*/0x1234);
  ASSERT_TRUE(Store.enabled());
  std::string Payload;
  EXPECT_EQ(Store.loadLatest(Payload), -1);
  ASSERT_TRUE(Store.save(3, "state after three\n"));
  ASSERT_TRUE(Store.save(7, "state after seven\n"));
  EXPECT_EQ(Store.loadLatest(Payload), 7);
  EXPECT_EQ(Payload, "state after seven\n");
}

TEST(Checkpoint, FingerprintMismatchIsReportedDistinctly) {
  std::string Dir = freshDir("rvp_ckpt_fingerprint");
  CheckpointStore Writer(Dir, 0xaaaa);
  std::string Payload;
  CheckpointLoad Outcome = CheckpointLoad::Loaded;
  // Empty directory: no snapshot, and explicitly *not* a mismatch.
  EXPECT_EQ(Writer.loadLatest(Payload, &Outcome), -1);
  EXPECT_EQ(Outcome, CheckpointLoad::None);
  ASSERT_TRUE(Writer.save(2, "payload\n"));
  // Another analysis' fingerprint: refused, and the caller can tell the
  // difference from "nothing there" (the drivers turn this into exit 2
  // instead of silently reanalyzing — docs/ROBUSTNESS.md).
  CheckpointStore Other(Dir, 0xbbbb);
  EXPECT_EQ(Other.loadLatest(Payload, &Outcome), -1);
  EXPECT_EQ(Outcome, CheckpointLoad::FingerprintMismatch);
  CheckpointStore Same(Dir, 0xaaaa);
  EXPECT_EQ(Same.loadLatest(Payload, &Outcome), 2);
  EXPECT_EQ(Outcome, CheckpointLoad::Loaded);
  EXPECT_EQ(Payload, "payload\n");
}

TEST(Checkpoint, EmptyDirDisablesTheStore) {
  CheckpointStore Store("", 0x1);
  EXPECT_FALSE(Store.enabled());
  std::string Payload;
  EXPECT_EQ(Store.loadLatest(Payload), -1);
}

//===----------------------------------------------------------------------===//
// Degradation end-to-end
//===----------------------------------------------------------------------===//

TEST(Degradation, ExhaustedBudgetsLandInUnknownNeverInRaces) {
  FaultGuard Guard;
  configureOrDie("solver.timeout,session.corrupt");
  DetectorOptions Options;
  Options.RetryBudgets = {0.01, 0.01};
  DetectionResult R = detectRaces(figure4Trace(), Technique::Maximal, Options);
  // Every solver answer is Unknown, so nothing may be claimed as a race;
  // the candidates surface in the unknown section instead.
  EXPECT_TRUE(R.Races.empty());
  ASSERT_FALSE(R.Unknowns.empty());
  EXPECT_EQ(R.Stats.UnknownCops, R.Unknowns.size());
  for (const UnknownReport &U : R.Unknowns)
    EXPECT_GT(U.Attempts, 1u) << "ladder was not escalated";
  EXPECT_GT(R.Stats.SolverRetries, 0u);
  EXPECT_GT(R.Stats.DegradedSessions, 0u);
}

TEST(Degradation, SessionCorruptionRebuildKeepsResultsIdentical) {
  Trace T = figure4Trace();
  DetectionResult Healthy = detectRaces(T, Technique::Maximal);

  FaultGuard Guard;
  configureOrDie("session.corrupt=1"); // first query poisons the session
  DetectionResult Degraded = detectRaces(T, Technique::Maximal);

  EXPECT_GT(Degraded.Stats.DegradedSessions, 0u);
  ASSERT_EQ(Degraded.Races.size(), Healthy.Races.size());
  EXPECT_TRUE(Degraded.Unknowns.empty());
  for (size_t I = 0; I < Healthy.Races.size(); ++I) {
    EXPECT_EQ(Degraded.Races[I].LocFirst, Healthy.Races[I].LocFirst);
    EXPECT_EQ(Degraded.Races[I].LocSecond, Healthy.Races[I].LocSecond);
    // The witness re-derived after the fallback must validate and match
    // the healthy session's witness event-for-event.
    EXPECT_TRUE(Degraded.Races[I].WitnessValid);
    EXPECT_EQ(Degraded.Races[I].Witness, Healthy.Races[I].Witness);
  }
}

TEST(Degradation, DeadSessionFallsBackToOneShotSolving) {
  Trace T = figure4Trace();
  DetectionResult Healthy = detectRaces(T, Technique::Maximal);

  FaultGuard Guard;
  // Poison every session query: quarantine, rebuild, quarantine again →
  // the host drops to fresh one-shot solvers, which still answer.
  configureOrDie("session.corrupt");
  DetectionResult Degraded = detectRaces(T, Technique::Maximal);

  EXPECT_GE(Degraded.Stats.DegradedSessions, 2u);
  ASSERT_EQ(Degraded.raceCount(), Healthy.raceCount());
  EXPECT_TRUE(Degraded.Unknowns.empty());
  for (size_t I = 0; I < Healthy.Races.size(); ++I) {
    EXPECT_TRUE(Degraded.Races[I].WitnessValid);
    EXPECT_EQ(Degraded.Races[I].Witness, Healthy.Races[I].Witness);
  }
}

TEST(Degradation, Z3OutageFallsBackToIdl) {
  Trace T = figure4Trace();
  DetectorOptions Idl;
  Idl.SolverName = "idl";
  DetectionResult Expected = detectRaces(T, Technique::Maximal, Idl);

  FaultGuard Guard;
  configureOrDie("z3.unavailable");
  DetectorOptions Z3;
  Z3.SolverName = "z3";
  DetectionResult Actual = detectRaces(T, Technique::Maximal, Z3);

  ASSERT_EQ(Actual.raceCount(), Expected.raceCount());
  for (size_t I = 0; I < Expected.Races.size(); ++I) {
    EXPECT_EQ(Actual.Races[I].LocFirst, Expected.Races[I].LocFirst);
    EXPECT_EQ(Actual.Races[I].LocSecond, Expected.Races[I].LocSecond);
  }
}

TEST(Degradation, RandomizedFaultyRunAgreesModuloUnknowns) {
  // Soundness under partial outage: whatever a fault-injected run reports
  // as a race must be a fault-free race, and every fault-free race it
  // misses must sit in its unknown section.
  for (uint64_t Seed : {1u, 2u, 3u}) {
    SyntheticSpec Spec;
    Spec.Workers = 4;
    Spec.TargetEvents = 2000;
    Spec.PlainRaces = 2;
    Spec.RvOnlyRaces = 1;
    Spec.Seed = Seed;
    Trace T = generateSynthetic(Spec);

    DetectorOptions Options;
    Options.RetryBudgets = {0.05, 0.2};
    DetectionResult Healthy = detectRaces(T, Technique::Maximal, Options);

    FaultGuard Guard;
    std::string FaultSpecStr =
        "seed=" + std::to_string(Seed) + ",solver.timeout=40%";
    configureOrDie(FaultSpecStr);
    DetectionResult Faulty = detectRaces(T, Technique::Maximal, Options);
    FaultInjector::reset();

    std::set<std::string> HealthyKeys, FaultyKeys, UnknownKeys;
    for (const RaceReport &R : Healthy.Races)
      HealthyKeys.insert(keyOf(R.Variable, R.LocFirst, R.LocSecond));
    for (const RaceReport &R : Faulty.Races)
      FaultyKeys.insert(keyOf(R.Variable, R.LocFirst, R.LocSecond));
    for (const UnknownReport &U : Faulty.Unknowns)
      UnknownKeys.insert(keyOf(U.Variable, U.LocFirst, U.LocSecond));

    for (const std::string &Key : FaultyKeys)
      EXPECT_TRUE(HealthyKeys.count(Key))
          << "seed " << Seed << ": fault-injected run invented race " << Key;
    for (const std::string &Key : HealthyKeys)
      EXPECT_TRUE(FaultyKeys.count(Key) || UnknownKeys.count(Key))
          << "seed " << Seed << ": race " << Key
          << " silently vanished under faults";
  }
}

//===----------------------------------------------------------------------===//
// Checkpoint resume through the drivers
//===----------------------------------------------------------------------===//

namespace {

/// A multi-window workload with races, atomicity violations, and
/// deadlocks, so each driver accumulates non-trivial resumable state. The
/// ordered-pair patterns spread the others over the windows: every
/// property has findings both in the first window and after it, so a run
/// resumed after the first window restores findings and still makes new
/// ones.
Trace resumableWorkload() {
  SyntheticSpec Spec;
  Spec.Workers = 4;
  Spec.TargetEvents = 4000;
  Spec.PlainRaces = 2;
  Spec.AtomicityPairs = 2;
  Spec.DeadlockCycles = 2;
  Spec.OrderedPairs = 150;
  Spec.AlignWindow = 1000;
  Spec.Seed = 6;
  Trace T = generateSynthetic(Spec);
  return T;
}

/// Multi-window options; pass an empty \p Dir for the checkpoint-free
/// baseline with the same windowing.
DetectorOptions checkpointOptions(const Trace &T, const std::string &Dir) {
  DetectorOptions Options;
  Options.WindowSize = 1000;
  Options.CheckpointDir = Dir;
  if (!Dir.empty())
    Options.CheckpointFingerprint = checkpointHash(writeTraceText(T));
  return Options;
}

/// The same options, stopping after the first window: the snapshot it
/// leaves behind is the mid-run state a resumed run must continue from.
DetectorOptions firstWindowOnly(DetectorOptions Options) {
  Options.MaxWindows = 1;
  return Options;
}

} // namespace

TEST(CheckpointResume, RaceDriverResumesToIdenticalResult) {
  Trace T = resumableWorkload();
  DetectionResult Fresh =
      detectRaces(T, Technique::Maximal, checkpointOptions(T, ""));
  ASSERT_GT(Fresh.Stats.Windows, 1u) << "workload must span windows";

  std::string Dir = freshDir("rvp_resume_race");
  DetectorOptions Options = checkpointOptions(T, Dir);
  DetectionResult First =
      detectRaces(T, Technique::Maximal, firstWindowOnly(Options));
  ASSERT_EQ(First.Stats.Windows, 1u);
  ASSERT_GT(First.raceCount(), 0u);
  ASSERT_LT(First.raceCount(), Fresh.raceCount());

  // Second run restores the first window's snapshot and finishes the
  // trace: the same work and report as an uninterrupted run.
  DetectionResult Resumed = detectRaces(T, Technique::Maximal, Options);
  EXPECT_EQ(Resumed.Stats.Windows, Fresh.Stats.Windows);
  EXPECT_EQ(Resumed.Stats.SolverCalls, Fresh.Stats.SolverCalls);
  ASSERT_EQ(Resumed.raceCount(), Fresh.raceCount());
  for (size_t I = 0; I < Fresh.Races.size(); ++I) {
    EXPECT_EQ(Resumed.Races[I].LocFirst, Fresh.Races[I].LocFirst);
    EXPECT_EQ(Resumed.Races[I].LocSecond, Fresh.Races[I].LocSecond);
    EXPECT_EQ(Resumed.Races[I].Witness, Fresh.Races[I].Witness);
    EXPECT_EQ(Resumed.Races[I].WitnessValid, Fresh.Races[I].WitnessValid);
  }
}

TEST(CheckpointResume, AtomicityDriverResumesToIdenticalResult) {
  Trace T = resumableWorkload();
  AtomicityResult Fresh = detectAtomicityViolations(T, checkpointOptions(T, ""));

  std::string Dir = freshDir("rvp_resume_atom");
  DetectorOptions Options = checkpointOptions(T, Dir);
  AtomicityResult First =
      detectAtomicityViolations(T, firstWindowOnly(Options));
  ASSERT_EQ(First.Stats.Windows, 1u);
  ASSERT_GT(First.Violations.size(), 0u);
  ASSERT_LT(First.Violations.size(), Fresh.Violations.size());
  AtomicityResult Resumed = detectAtomicityViolations(T, Options);
  EXPECT_EQ(Resumed.Stats.Windows, Fresh.Stats.Windows);
  EXPECT_EQ(Resumed.Stats.SolverCalls, Fresh.Stats.SolverCalls);
  ASSERT_EQ(Resumed.Violations.size(), Fresh.Violations.size());
  for (size_t I = 0; I < Fresh.Violations.size(); ++I) {
    EXPECT_EQ(Resumed.Violations[I].Variable, Fresh.Violations[I].Variable);
    EXPECT_EQ(Resumed.Violations[I].LocFirst, Fresh.Violations[I].LocFirst);
    EXPECT_EQ(Resumed.Violations[I].LocRemote, Fresh.Violations[I].LocRemote);
    EXPECT_EQ(Resumed.Violations[I].LocSecond, Fresh.Violations[I].LocSecond);
    EXPECT_EQ(Resumed.Violations[I].Witness, Fresh.Violations[I].Witness);
    EXPECT_EQ(Resumed.Violations[I].WitnessValid,
              Fresh.Violations[I].WitnessValid);
  }
}

TEST(CheckpointResume, DeadlockDriverResumesToIdenticalResult) {
  Trace T = resumableWorkload();
  DeadlockResult Fresh = detectDeadlocks(T, checkpointOptions(T, ""));

  std::string Dir = freshDir("rvp_resume_dl");
  DetectorOptions Options = checkpointOptions(T, Dir);
  DeadlockResult First = detectDeadlocks(T, firstWindowOnly(Options));
  ASSERT_EQ(First.Stats.Windows, 1u);
  ASSERT_GT(First.Deadlocks.size(), 0u);
  ASSERT_LT(First.Deadlocks.size(), Fresh.Deadlocks.size());
  DeadlockResult Resumed = detectDeadlocks(T, Options);
  EXPECT_EQ(Resumed.Stats.Windows, Fresh.Stats.Windows);
  EXPECT_EQ(Resumed.Stats.SolverCalls, Fresh.Stats.SolverCalls);
  ASSERT_EQ(Resumed.Deadlocks.size(), Fresh.Deadlocks.size());
  for (size_t I = 0; I < Fresh.Deadlocks.size(); ++I) {
    EXPECT_EQ(Resumed.Deadlocks[I].LocRequestA, Fresh.Deadlocks[I].LocRequestA);
    EXPECT_EQ(Resumed.Deadlocks[I].LocRequestB, Fresh.Deadlocks[I].LocRequestB);
    EXPECT_EQ(Resumed.Deadlocks[I].Witness, Fresh.Deadlocks[I].Witness);
    EXPECT_EQ(Resumed.Deadlocks[I].WitnessValid,
              Fresh.Deadlocks[I].WitnessValid);
  }
}

TEST(CheckpointResume, ForeignPropertyPayloadIsRefused) {
  // Payloads are input from disk: a driver handed another property's
  // state must refuse it and analyze the trace from scratch.
  Trace T = resumableWorkload();
  DetectorOptions Options = checkpointOptions(T, "");
  std::string Race, Atom, Dl;
  auto saving = [&](std::string &Payload) {
    DetectorOptions O = Options;
    O.SaveState = &Payload;
    return O;
  };
  DetectionResult FreshRace = detectRaces(T, Technique::Maximal, saving(Race));
  AtomicityResult FreshAtom = detectAtomicityViolations(T, saving(Atom));
  DeadlockResult FreshDl = detectDeadlocks(T, saving(Dl));
  // Every payload carries a finding line, so refusal is also checked
  // with the property line forged: the finding tags alone must differ.
  ASSERT_FALSE(FreshRace.Races.empty());
  ASSERT_FALSE(FreshAtom.Violations.empty());
  ASSERT_FALSE(FreshDl.Deadlocks.empty());
  auto forged = [](std::string Payload, const std::string &Property) {
    size_t End = Payload.find('\n');
    return "property " + Property + Payload.substr(End);
  };

  for (const std::string &Foreign :
       {Atom, Dl, forged(Atom, "race"), forged(Dl, "race")}) {
    DetectorOptions O = Options;
    O.ResumeState = &Foreign;
    std::string Saved;
    O.SaveState = &Saved;
    DetectionResult R = detectRaces(T, Technique::Maximal, O);
    EXPECT_EQ(Saved, Race);
    ASSERT_EQ(R.Races.size(), FreshRace.Races.size());
    for (size_t I = 0; I < R.Races.size(); ++I)
      EXPECT_EQ(R.Races[I].Witness, FreshRace.Races[I].Witness);
  }
  for (const std::string &Foreign :
       {Race, Dl, forged(Race, "atomicity"), forged(Dl, "atomicity")}) {
    DetectorOptions O = Options;
    O.ResumeState = &Foreign;
    std::string Saved;
    O.SaveState = &Saved;
    AtomicityResult R = detectAtomicityViolations(T, O);
    EXPECT_EQ(Saved, Atom);
    EXPECT_EQ(R.Violations.size(), FreshAtom.Violations.size());
  }
  for (const std::string &Foreign :
       {Race, Atom, forged(Race, "deadlock"), forged(Atom, "deadlock")}) {
    DetectorOptions O = Options;
    O.ResumeState = &Foreign;
    std::string Saved;
    O.SaveState = &Saved;
    DeadlockResult R = detectDeadlocks(T, O);
    EXPECT_EQ(Saved, Dl);
    EXPECT_EQ(R.Deadlocks.size(), FreshDl.Deadlocks.size());
  }
}

TEST(Checkpoint, VersionOneSnapshotIsIgnored) {
  // Version 2 changed the payload layout: a version-1 snapshot is an
  // obsolete format, not another analysis' state, so it is ignored and
  // the run starts clean (and overwrites it).
  Trace T = resumableWorkload();
  std::string Dir = freshDir("rvp_ckpt_v1");
  DetectorOptions Options = checkpointOptions(T, Dir);
  {
    std::ofstream Out(Dir + "/window-0.ckpt");
    Out << "rvpckpt 1 " << std::hex << std::setw(16) << std::setfill('0')
        << Options.CheckpointFingerprint << "\n"
        << "stats 1 0 0 0 0 0 0 0\n";
  }
  CheckpointStore Store(Dir, Options.CheckpointFingerprint);
  std::string Payload;
  CheckpointLoad Outcome = CheckpointLoad::Loaded;
  EXPECT_EQ(Store.loadLatest(Payload, &Outcome), -1);
  EXPECT_EQ(Outcome, CheckpointLoad::None);

  DetectionResult Fresh =
      detectRaces(T, Technique::Maximal, checkpointOptions(T, ""));
  DetectionResult R = detectRaces(T, Technique::Maximal, Options);
  EXPECT_EQ(R.Stats.Windows, Fresh.Stats.Windows);
  EXPECT_EQ(R.Stats.SolverCalls, Fresh.Stats.SolverCalls);
  EXPECT_EQ(R.raceCount(), Fresh.raceCount());
  EXPECT_EQ(Store.loadLatest(Payload, &Outcome),
            static_cast<int64_t>(Fresh.Stats.Windows) - 1);
  EXPECT_EQ(Outcome, CheckpointLoad::Loaded);
}

TEST(CheckpointResume, UnknownsSurviveTheSnapshot) {
  // Unknown entries are resumable state too: a run whose solver always
  // times out checkpoints its unknowns, and the resumed run reloads them
  // instead of silently dropping the section.
  Trace T = figure4Trace();
  std::string Dir = freshDir("rvp_resume_unknown");
  DetectorOptions Options = checkpointOptions(T, Dir);

  {
    FaultGuard Guard;
    configureOrDie("solver.timeout,session.corrupt");
    DetectionResult Faulty = detectRaces(T, Technique::Maximal, Options);
    ASSERT_FALSE(Faulty.Unknowns.empty());
  }

  // Resume fault-free: every window is already covered, so the unknowns
  // come straight from the snapshot.
  DetectionResult Resumed = detectRaces(T, Technique::Maximal, Options);
  EXPECT_FALSE(Resumed.Unknowns.empty());
  EXPECT_EQ(Resumed.Stats.UnknownCops, Resumed.Unknowns.size());
}
