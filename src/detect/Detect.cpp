//===- detect/Detect.cpp - Predictive race detectors -------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Detect.h"

#include "detect/Closure.h"
#include "detect/Lockset.h"
#include "detect/Wcp.h"
#include "detect/WindowDriver.h"
#include "detect/WindowEncoding.h"
#include "detect/WitnessChecker.h"
#include "smt/Solver.h"
#include "support/BuildInfo.h"
#include "support/Compiler.h"
#include "support/MemStats.h"
#include "support/Profile.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <cstring>
#include <memory>
#include <optional>

using namespace rvp;

const char *rvp::techniqueName(Technique Tech) {
  switch (Tech) {
  case Technique::Hb:
    return "HB";
  case Technique::Cp:
    return "CP";
  case Technique::Said:
    return "Said";
  case Technique::Maximal:
    return "RV";
  }
  RVP_UNREACHABLE("unknown technique");
}

const char *rvp::tierName(DetectTier Tier) {
  switch (Tier) {
  case DetectTier::Vc:
    return "vc";
  case DetectTier::Smt:
    return "smt";
  case DetectTier::Hybrid:
    return "hybrid";
  }
  RVP_UNREACHABLE("unknown tier");
}

std::string rvp::renderStatsTable(const DetectionStats &Stats,
                                  const char *What) {
  std::string Out = formatString(
      "windows=%llu cops=%llu pruned_static=%llu qc=%llu solves=%llu "
      "timeouts=%llu jobs=%u\n",
      static_cast<unsigned long long>(Stats.Windows),
      static_cast<unsigned long long>(Stats.Cops),
      static_cast<unsigned long long>(Stats.CopsPrunedStatic),
      static_cast<unsigned long long>(Stats.QcPassed),
      static_cast<unsigned long long>(Stats.SolverCalls),
      static_cast<unsigned long long>(Stats.SolverTimeouts),
      static_cast<unsigned>(Stats.Jobs));
  // Degradation line only when something degraded, so healthy runs print
  // the classic summary unchanged (docs/ROBUSTNESS.md).
  if (Stats.SolverRetries || Stats.DegradedSessions || Stats.UnknownCops)
    Out += formatString(
        "resilience: retries=%llu degraded_sessions=%llu unknown=%llu\n",
        static_cast<unsigned long long>(Stats.SolverRetries),
        static_cast<unsigned long long>(Stats.DegradedSessions),
        static_cast<unsigned long long>(Stats.UnknownCops));
  // Tier line only when the WCP tier ran (docs/TIERS.md): --tier=smt runs
  // print the classic summary unchanged.
  if (Stats.WcpRaces || Stats.WcpPruned || Stats.WcpResidue ||
      Stats.WcpShortCircuits || Stats.WcpMismatches)
    Out += formatString(
        "wcp: races=%llu pruned=%llu residue=%llu short_circuits=%llu\n",
        static_cast<unsigned long long>(Stats.WcpRaces),
        static_cast<unsigned long long>(Stats.WcpPruned),
        static_cast<unsigned long long>(Stats.WcpResidue),
        static_cast<unsigned long long>(Stats.WcpShortCircuits));
  if (!Stats.Telemetry.Captured)
    return Out;
  Out += formatString("phases (%s, wall seconds):\n", What);
  Stats.Telemetry.Phases.renderInto(Out);
  if (!Stats.Telemetry.Metrics.empty()) {
    Out += "metrics:\n";
    Out += Stats.Telemetry.Metrics.renderTable();
  }
  Out += Stats.TopCosts.renderTable();
  return Out;
}

std::string rvp::statsToJson(const DetectionStats &Stats, const char *What) {
  JsonObject O;
  // Identity triple first, so trajectory tooling can key records without
  // scanning (docs/OBSERVABILITY.md).
  appendRunMetadata(O);
  O.field("technique", What)
      .field("seconds", Stats.Seconds)
      .field("windows", Stats.Windows)
      .field("cops", Stats.Cops)
      .field("cops_pruned_static", Stats.CopsPrunedStatic)
      .field("qc_passed", Stats.QcPassed)
      .field("solver_calls", Stats.SolverCalls)
      .field("solver_timeouts", Stats.SolverTimeouts)
      .field("solver_retries", Stats.SolverRetries)
      .field("degraded_sessions", Stats.DegradedSessions)
      .field("unknown_cops", Stats.UnknownCops)
      .field("wcp_races", Stats.WcpRaces)
      .field("wcp_pruned_cops", Stats.WcpPruned)
      .field("wcp_residue_cops", Stats.WcpResidue)
      .field("solver_calls_saved", Stats.WcpShortCircuits)
      .field("wcp_mismatches", Stats.WcpMismatches)
      .field("jobs", static_cast<uint64_t>(Stats.Jobs));
  if (Stats.Telemetry.Captured) {
    O.raw("metrics", metricsToJson(Stats.Telemetry.Metrics));
    O.raw("phases", Stats.Telemetry.Phases.toJson());
    Stats.TopCosts.addToJson(O);
  }
  return O.str();
}

bool DetectionResult::hasRaceAt(const std::string &LocA,
                                const std::string &LocB) const {
  for (const RaceReport &R : Races) {
    if ((R.LocFirst == LocA && R.LocSecond == LocB) ||
        (R.LocFirst == LocB && R.LocSecond == LocA))
      return true;
  }
  return false;
}

namespace {

// ------------------------------------------------------------------ CP

/// The causally-precedes relation of Smaragdakis et al. [35], computed per
/// window at critical-section granularity. CP keeps the must-happen-before
/// and volatile edges of HB but only those release->acquire edges that the
/// rules justify:
///
///  (a) the two critical sections contain conflicting accesses, or
///  (b) they contain CP-ordered events — decided through a fixpoint over
///      the section graph, with HB composition on both sides implicit in
///      the vector-clock closure.
class CpOrder {
public:
  CpOrder(const Trace &T, Span S) : T(T), Window(S) {
    collectSections();
    seedConflictEdges();
    // Fixpoint: recompute the closure with the active edges, then try to
    // activate more candidate edges via rule (b).
    for (;;) {
      rebuildClosure();
      if (!activateByRuleB())
        break;
    }
  }

  /// Final CP-order query (A before B in trace order).
  bool ordered(EventId A, EventId B) const {
    return Closure->ordered(A, B);
  }

private:
  struct Section {
    LockId Lock = 0;
    ThreadId Tid = 0;
    EventId Acq = InvalidEvent;   ///< InvalidEvent when before the window
    EventId Rel = InvalidEvent;   ///< InvalidEvent when after the window
    EventId FirstEv = InvalidEvent; ///< first in-window event of the CS
    EventId LastEv = InvalidEvent;  ///< last in-window event of the CS
    /// Accessed variables: bit0 = read, bit1 = write (non-volatile only).
    std::unordered_map<VarId, uint8_t> Access;
  };

  void collectSections() {
    for (LockId Lock = 0; Lock < T.numLocks(); ++Lock) {
      for (const LockPair &P : T.lockPairsOf(Lock)) {
        Section Sec;
        Sec.Lock = Lock;
        Sec.Tid = P.Tid;
        if (P.AcquireId != InvalidEvent && Window.contains(P.AcquireId))
          Sec.Acq = P.AcquireId;
        if (P.ReleaseId != InvalidEvent && Window.contains(P.ReleaseId))
          Sec.Rel = P.ReleaseId;
        if (Sec.Acq == InvalidEvent && Sec.Rel == InvalidEvent)
          continue;
        // Body range in trace positions (clipped to the window).
        EventId Lo = Sec.Acq != InvalidEvent ? Sec.Acq : Window.Begin;
        EventId Hi = Sec.Rel != InvalidEvent ? Sec.Rel : Window.End - 1;
        Sec.FirstEv = Lo;
        Sec.LastEv = Hi;
        for (EventId Id = Lo; Id <= Hi && Id < Window.End; ++Id) {
          const Event &E = T[Id];
          if (E.Tid != Sec.Tid || !E.isAccess() || E.Volatile)
            continue;
          Sec.Access[E.Target] |= E.isWrite() ? 2 : 1;
        }
        Sections.push_back(std::move(Sec));
      }
    }
    // Candidate edges: same lock, different threads, source has a release
    // in window, target has an acquire in window, forward in trace order.
    for (size_t I = 0; I < Sections.size(); ++I) {
      for (size_t J = 0; J < Sections.size(); ++J) {
        if (I == J)
          continue;
        const Section &P = Sections[I];
        const Section &Q = Sections[J];
        if (P.Lock != Q.Lock || P.Tid == Q.Tid)
          continue;
        if (P.Rel == InvalidEvent || Q.Acq == InvalidEvent)
          continue;
        if (P.Rel > Q.Acq)
          continue;
        Candidates.push_back({static_cast<uint32_t>(I),
                              static_cast<uint32_t>(J)});
      }
    }
    Active.assign(Candidates.size(), false);
  }

  static bool bodiesConflict(const Section &P, const Section &Q) {
    const auto &Small = P.Access.size() <= Q.Access.size() ? P : Q;
    const auto &Large = P.Access.size() <= Q.Access.size() ? Q : P;
    for (const auto &[Var, Flags] : Small.Access) {
      auto It = Large.Access.find(Var);
      if (It == Large.Access.end())
        continue;
      if ((Flags & 2) || (It->second & 2))
        return true;
    }
    return false;
  }

  void seedConflictEdges() {
    for (size_t C = 0; C < Candidates.size(); ++C) {
      auto [I, J] = Candidates[C];
      if (bodiesConflict(Sections[I], Sections[J]))
        Active[C] = true;
    }
  }

  void rebuildClosure() {
    std::vector<ExtraEdge> Edges;
    for (size_t C = 0; C < Candidates.size(); ++C) {
      if (!Active[C])
        continue;
      auto [I, J] = Candidates[C];
      Edges.push_back({Sections[I].Rel, Sections[J].Acq});
    }
    Closure.emplace(T, Window, ClosureConfig::cpBase(), Edges);
  }

  bool orderedEq(EventId A, EventId B) const {
    return A == B || Closure->ordered(A, B);
  }

  /// Rule (b): activate candidate (i,j) when some event of CS_i is
  /// CP-before some event of CS_j through an already-active edge (m,n);
  /// taking the earliest event of CS_i and the latest of CS_j gives the
  /// exact existential check.
  bool activateByRuleB() {
    bool Any = false;
    for (size_t C = 0; C < Candidates.size(); ++C) {
      if (Active[C])
        continue;
      auto [I, J] = Candidates[C];
      for (size_t C2 = 0; C2 < Candidates.size(); ++C2) {
        if (!Active[C2])
          continue;
        auto [M, N] = Candidates[C2];
        if (orderedEq(Sections[I].FirstEv, Sections[M].Rel) &&
            orderedEq(Sections[N].Acq, Sections[J].LastEv)) {
          Active[C] = true;
          Any = true;
          break;
        }
      }
    }
    return Any;
  }

  const Trace &T;
  Span Window;
  std::vector<Section> Sections;
  std::vector<std::pair<uint32_t, uint32_t>> Candidates;
  std::vector<bool> Active;
  std::optional<EventClosure> Closure;
};

// ------------------------------------------------------------ policy

/// The race property on the shared window driver. Hb and Cp, and the Vc
/// tier, decide every COP in phase A through one racy(C) predicate; Said
/// and Maximal hand the driver's COP loop one candidate per COP after the
/// static prune, the quick check, and the WCP tier.
class RacePolicy final : public WindowPolicy {
public:
  RacePolicy(const Trace &T, Technique Tech, const DetectorOptions &Options)
      : WindowPolicy(T, Options, "race", "detect"), Tech(Tech) {
    if (solves()) {
      std::unique_ptr<SmtSolver> Solver =
          createSolverByName(Options.SolverName);
      SolverName = Solver ? Solver->name() : createIdlSolver()->name();
    }
  }

  std::vector<RaceReport> Races;

  /// The Vc tier replaces the whole encode+solve machinery with the WCP
  /// pass: no solver, no pool, no incremental sessions (docs/TIERS.md).
  bool solves() const override {
    return (Tech == Technique::Said || Tech == Technique::Maximal) &&
           Options.Tier != DetectTier::Vc;
  }
  bool witnesses() const override { return Tech == Technique::Maximal; }
  /// The substituted race event shares its partner's position and is
  /// placed right before it.
  bool leadsWitness() const override { return true; }

  size_t enumerate(WindowScope &W, std::vector<Candidate> &Out) override {
    SolvesBefore = State.Stats.SolverCalls;
    {
      ScopedPhaseTimer CopPhase("cop-enum");
      Cops = collectCops(T, W.Window);
    }
    if (Cops.empty())
      return 0;

    // Sound static pruning: decided once per COP, before every dynamic
    // filter, from program structure alone — so it is identical across
    // schedules, jobs counts, and windows.
    std::vector<bool> Pruned(Cops.size(), false);
    if (Options.StaticPruner) {
      ScopedPhaseTimer PrunePhase("static-prune");
      for (size_t I = 0; I < Cops.size(); ++I) {
        Pruned[I] = Options.StaticPruner->prunable(T, Cops[I].First,
                                                   Cops[I].Second);
        State.Stats.CopsPrunedStatic += Pruned[I];
      }
    }

    {
      ScopedPhaseTimer ClosurePhase("closure");
      W.Mhb.emplace(T, W.Window, ClosureConfig::mhb());
    }
    QuickCheck Qc(T, W.Window, *W.Mhb);
    {
      ScopedPhaseTimer QcPhase("quick-check");
      for (size_t I = 0; I < Cops.size(); ++I) {
        if (Pruned[I])
          continue; // skipped pairs do not enter the QC accounting
        if (Qc.pass(Cops[I])) {
          ++State.QcHits;
          State.QcSeen.insert(sigOf(Cops[I]));
        } else {
          ++State.QcMisses;
        }
      }
    }
    State.Stats.QcPassed = State.QcSeen.size();

    // The WCP tier (docs/TIERS.md): one linear vector-clock pass per
    // window. Hybrid uses it to prune MHB-ordered COPs and short-circuit
    // WCP-provable races past the solver; Vc replaces the solver with it
    // entirely. --check-tiers keeps the full SMT semantics (no fast
    // paths) and compares WCP's verdict against every solver decision.
    std::optional<WcpIndex> Wcp;
    if (wcpActive()) {
      ScopedPhaseTimer WcpPhase("wcp");
      Timer WcpClock;
      Wcp.emplace(T, W.Window);
      if (Telemetry::enabled())
        MetricsRegistry::global()
            .histogram("wcp.latency_seconds")
            .record(WcpClock.seconds());
    }

    if (!solves()) {
      decideInline(W.Window, Pruned, Qc, Wcp ? &*Wcp : nullptr);
      return Cops.size();
    }

    // SMT-based techniques. The COP-invariant encoding state is built
    // once per window and shared read-only by every encode+solve.
    EncoderOptions EncOpts;
    EncOpts.SubstituteRaceVars = Options.SubstituteRaceVars;
    EncOpts.Slice = Options.Slice;
    // Statically constant branches lose their cf guards on the decision
    // path only; the witness re-derivation keeps the full guards so
    // witness orders stay byte-identical to unfolded runs.
    EncOpts.Fold = Options.CfFold;
    W.Encoder.emplace(std::make_shared<const WindowEncoding>(
                          T, W.Window, *W.Mhb, State.Values),
                      EncOpts);

    // Hybrid fast paths, disabled under --check-tiers so the cross
    // validation compares WCP against the full SMT semantics.
    WcpFastPath = Wcp && !Options.CheckTiers;
    Info.assign(Cops.size(), CopInfo());
    for (size_t I = 0; I < Cops.size(); ++I) {
      const Cop &C = Cops[I];
      CopInfo &In = Info[I];
      Candidate &Cand = Out.emplace_back();
      Cand.Sig = sigOf(C);
      Cand.First = C.First;
      Cand.Second = C.Second;
      if (Pruned[I]) {
        Cand.Filter = Candidate::Verdict::Early;
        In = {"static-pruned", "static-prune", false};
      } else if (WcpFastPath && (Wcp->mhbOrdered(C.First, C.Second) ||
                                 Wcp->mhbOrdered(C.Second, C.First))) {
        // WCP/MHB prune: exact mirror of the closure the quick check
        // uses, so every pair pruned here would have been a qc-fail in
        // the Smt tier — reports are identical, the weak-HB recheck is
        // skipped.
        Cand.Filter = Candidate::Verdict::Early;
        ++State.Stats.WcpPruned;
        In = {"wcp-ordered", "wcp", false};
      } else if (Options.UseQuickCheck && !Qc.pass(C)) {
        Cand.Filter = Candidate::Verdict::Late;
        In = {"qc-fail", Qc.failStage(C), false};
      } else if (Wcp) {
        In.WcpRacy = Wcp->racy(C.First, C.Second);
        // WCP short-circuit (Maximal only): a pair WCP proves racy skips
        // the sliced encode and the session solve. With witnesses on the
        // race is verified through the same unsliced one-shot
        // re-derivation the Smt tier uses for witness models, so reports
        // stay byte-identical; with witnesses off the WCP verdict is
        // trusted (the Vc-tier semantics; --check-tiers is the standing
        // oracle).
        if (WcpFastPath && Tech == Technique::Maximal && In.WcpRacy)
          Cand.Filter = Candidate::Verdict::Proven;
      }
    }
    return Cops.size();
  }

  NodeRef encode(const RaceEncoder &E, size_t I, FormulaBuilder &FB,
                 EncodeStats *Stats) const override {
    const Cop &C = Cops[I];
    return Tech == Technique::Maximal
               ? E.encodeMaximalRace(FB, C.First, C.Second, Stats)
               : E.encodeSaidRace(FB, C.First, C.Second, Stats);
  }

  bool witnessValid(const WindowScope &W, size_t I,
                    const std::vector<EventId> &Witness) const override {
    const Cop &C = Cops[I];
    return checkWitness(T, W.Window, Witness, C.First, C.Second, *W.Encoder,
                        *W.Mhb, State.Values)
        .Ok;
  }

  void filtered(size_t I) override {
    emitCopEvent(Cops[I], Info[I].Outcome, Info[I].Stage);
  }

  void signaturePruned(size_t I) override {
    emitCopEvent(Cops[I], "pruned", "signature");
  }

  void decided(size_t I, CandidateOutcome &R) override {
    const Cop &C = Cops[I];
    const char *Outcome = R.Sat == SatResult::Sat     ? "sat"
                          : R.Sat == SatResult::Unsat ? "unsat"
                                                      : "timeout";
    CopEventExtra Extra;
    if (!R.Decided) {
      // A WCP-proven COP: its witness solve (if any) is the only solver
      // work it got.
      ++State.Stats.WcpShortCircuits;
      if (!Options.CollectWitnesses)
        Outcome = "race";
      Extra.Stage = R.Sat == SatResult::Sat ? "wcp" : stageForOutcome(Outcome);
      Extra.WitnessSeconds = R.WitnessSeconds;
      emitCopEventFields(C, Outcome, false, 0, 0, 0, 0, Extra);
      recordCopCost(C, Outcome, 0, Extra);
      if (R.Sat == SatResult::Sat) {
        ++State.Stats.WcpRaces;
        report(C.First, C.Second, std::move(R.Witness), R.WitnessValid);
      }
      return;
    }
    if (WcpFastPath)
      ++State.Stats.WcpResidue;
    // --check-tiers: WCP claimed a race the full pipeline refutes — the
    // windowed over-report weak soundness permits beyond the first race.
    // Counted here, surfaced as an error by the front end.
    if (Options.CheckTiers && R.Sat == SatResult::Unsat && Info[I].WcpRacy)
      ++State.Stats.WcpMismatches;
    Extra.Stage = stageForOutcome(Outcome);
    Extra.EncodeSeconds = R.EncodeSeconds;
    Extra.WitnessSeconds = R.WitnessSeconds;
    Extra.MemDeltaBytes = R.MemDeltaBytes;
    Extra.Attempts = R.Attempts;
    Extra.ConeEvents = R.ConeEvents;
    emitSolveEvent(C, Outcome, R.SolveSeconds);
    emitCopEventFields(C, Outcome, true, R.FormulaNodes, R.DifferenceAtoms,
                       R.OrderVars, R.SolveSeconds, Extra);
    recordCopCost(C, Outcome, R.SolveSeconds, Extra);
    if (R.Sat == SatResult::Sat)
      report(C.First, C.Second, std::move(R.Witness), R.WitnessValid);
  }

  void windowDone(const WindowScope &W, size_t Count,
                  double Seconds) override {
    emitWindowEvent(W.Window, Count, Seconds);
    if (Telemetry::enabled()) {
      WindowCost Cost;
      Cost.Index = State.Stats.Windows - 1;
      Cost.Cops = Count;
      Cost.Solves = State.Stats.SolverCalls - SolvesBefore;
      Cost.Seconds = Seconds;
      State.Stats.TopCosts.recordWindow(Cost);
    }
    // Live counter tracks, sampled once per window barrier — enough
    // resolution to see trends in Perfetto without bloating the trace.
    if (ProfileCollector *P = ProfileCollector::active()) {
      P->counter("cops", static_cast<double>(State.Stats.Cops));
      P->counter("races", static_cast<double>(Races.size()));
      P->counter("solver-calls",
                 static_cast<double>(State.Stats.SolverCalls));
      P->counter("mem.formula_bytes",
                 static_cast<double>(MemStats::current(MemPool::Formula)));
      P->counter("mem.rss_bytes",
                 static_cast<double>(MemStats::currentRssBytes()));
    }
  }

  void flushTelemetry(MetricsRegistry &Reg) const override {
    Reg.counter("detect.qc_hits").add(State.QcHits);
    Reg.counter("detect.qc_misses").add(State.QcMisses);
    Reg.counter("detect.qc_passed_signatures").add(State.Stats.QcPassed);
    Reg.counter("detect.signature_pruned").add(State.SigPruned);
    Reg.counter("analysis.cops_pruned_static")
        .add(State.Stats.CopsPrunedStatic);
    Reg.counter("detect.races").add(Races.size());
    if (wcpActive()) {
      Reg.counter("wcp.races").add(State.Stats.WcpRaces);
      Reg.counter("wcp.pruned_cops").add(State.Stats.WcpPruned);
      Reg.counter("wcp.residue_cops").add(State.Stats.WcpResidue);
      Reg.counter("wcp.check_mismatches").add(State.Stats.WcpMismatches);
    }
    Reg.gauge("detect.jobs").set(State.Stats.Jobs);
    // Memory gauges: the accounted pools plus process RSS. Trace storage
    // is owned outside the detectors, so its gauge is set directly from
    // the (immutable) event array instead of through a MemCharge.
    MemStats::publishGauges(Reg);
    double TraceBytes =
        static_cast<double>(T.size()) * static_cast<double>(sizeof(Event));
    Reg.gauge("mem.trace_bytes").set(TraceBytes);
    Reg.gauge("mem.trace_peak_bytes").set(TraceBytes);
  }

  void encodeFindings(std::string &Out) const override {
    for (const RaceReport &R : Races) {
      Out += formatString("race %llu %llu",
                          static_cast<unsigned long long>(R.First),
                          static_cast<unsigned long long>(R.Second));
      appendWitnessFields(Out, R.WitnessValid, R.Witness);
    }
  }

  size_t numFindings() const override { return Races.size(); }

  std::string renderFinding(size_t I,
                            const ReportRenderOptions &R) const override {
    return renderRaceLine(T, Races[I], R);
  }

  std::string renderReport(const ReportRenderOptions &R) const override {
    return renderRaceReport(T, Tech, result(), R);
  }

  DetectionResult result() const {
    DetectionResult Result;
    Result.Races = Races;
    Result.Unknowns = State.Unknowns;
    Result.Stats = State.Stats;
    return Result;
  }

  bool restoreFindings(
      const std::vector<std::vector<std::string_view>> &Lines) override {
    std::vector<RaceReport> Restored;
    for (const std::vector<std::string_view> &F : Lines) {
      RaceReport R;
      if (F[0] != "race" || F.size() < 4 ||
          !parseEventField(T, F[1], R.First) ||
          !parseEventField(T, F[2], R.Second) ||
          !parseWitnessFields(T, F, 3, R.WitnessValid, R.Witness))
        return false;
      describe(R);
      Restored.push_back(std::move(R));
    }
    Races = std::move(Restored);
    return true;
  }

private:
  /// Why phase A rejected a COP, for its trace event; and, when the WCP
  /// tier ran, its verdict (the --check-tiers oracle).
  struct CopInfo {
    const char *Outcome = nullptr;
    const char *Stage = nullptr;
    bool WcpRacy = false;
  };

  uint64_t sigOf(const Cop &C) const {
    return RaceSignature::of(T, C.First, C.Second).key();
  }

  /// Whether the WCP tier runs at all: Hybrid/Vc, SMT-based techniques
  /// only (the Hb/Cp detectors are already linear-time).
  bool wcpActive() const {
    return Options.Tier != DetectTier::Smt &&
           (Tech == Technique::Said || Tech == Technique::Maximal);
  }

  /// The linear-time detectors: Hb and Cp by their closures, the Vc tier
  /// by WCP alone — no encoder, no solver, no witnesses. Sound in the weak
  /// sense of those detectors: every reported pair is unordered, and the
  /// first one is guaranteed predictable.
  void decideInline(Span Window, const std::vector<bool> &Pruned,
                    const QuickCheck &Qc, const WcpIndex *Wcp) {
    std::optional<EventClosure> Hb;
    std::optional<CpOrder> Cp;
    if (Tech == Technique::Hb)
      Hb.emplace(T, Window, ClosureConfig::hb());
    else if (Tech == Technique::Cp)
      Cp.emplace(T, Window);
    auto Racy = [&](const Cop &C) {
      if (Hb)
        return !Hb->ordered(C.First, C.Second) &&
               !Hb->ordered(C.Second, C.First);
      if (Cp)
        return !Cp->ordered(C.First, C.Second) &&
               !Cp->ordered(C.Second, C.First);
      return Wcp->racy(C.First, C.Second);
    };
    for (size_t I = 0; I < Cops.size(); ++I) {
      const Cop &C = Cops[I];
      if (Pruned[I]) {
        emitCopEvent(C, "static-pruned", "static-prune");
        continue;
      }
      uint64_t Sig = sigOf(C);
      if (State.Seen.count(Sig)) {
        ++State.SigPruned;
        continue;
      }
      // The quick check's lockset/weak-HB components are implied by the
      // WCP rules, but gating on them keeps the Vc loop shaped like the
      // other tiers and guards the windowed approximations.
      if (Wcp && Options.UseQuickCheck && !Qc.pass(C)) {
        emitCopEvent(C, "qc-fail", Qc.failStage(C));
        continue;
      }
      bool IsRacy = Racy(C);
      if (IsRacy) {
        if (Wcp)
          ++State.Stats.WcpRaces;
        State.found(Sig);
        report(C.First, C.Second, {}, false);
      }
      const char *Outcome = IsRacy ? "race" : "ordered";
      emitCopEvent(C, Outcome,
                   IsRacy && Wcp ? "wcp" : stageForOutcome(Outcome));
    }
  }

  void describe(RaceReport &R) const {
    R.Sig = RaceSignature::of(T, R.First, R.Second);
    R.LocFirst = T.locName(T[R.First].Loc);
    R.LocSecond = T.locName(T[R.Second].Loc);
    R.Variable = T.varName(T[R.First].Target);
  }

  void report(EventId A, EventId B, std::vector<EventId> Witness,
              bool WitnessValid) {
    RaceReport R;
    R.First = A;
    R.Second = B;
    describe(R);
    R.Witness = std::move(Witness);
    R.WitnessValid = WitnessValid;
    Races.push_back(std::move(R));
  }

  // ------------------------------------------------------- telemetry

  TraceEventSink *activeSink() const {
    return Telemetry::enabled() ? Telemetry::instance().sink() : nullptr;
  }

  void emitWindowEvent(Span Window, size_t Count, double Seconds) {
    TraceEventSink *Sink = activeSink();
    if (!Sink)
      return;
    JsonObject O;
    O.field("type", "window")
        .field("index", State.Stats.Windows - 1)
        .field("begin", static_cast<uint64_t>(Window.Begin))
        .field("end", static_cast<uint64_t>(Window.End))
        .field("cops", static_cast<uint64_t>(Count))
        .field("seconds", Seconds);
    Sink->write(O);
  }

  /// Per-COP attribution beyond the formula-size numbers: the prune
  /// provenance (which stage decided the pair) plus, for solved COPs, the
  /// encode/witness split, the formula-arena delta, and the escalation
  /// attempts. Carried into cop trace events and the cost ledger.
  struct CopEventExtra {
    const char *Stage = "none";
    double EncodeSeconds = 0;
    double WitnessSeconds = 0;
    uint64_t MemDeltaBytes = 0;
    uint32_t Attempts = 0;
    uint64_t ConeEvents = 0; ///< sliced-encode cone size (0 unsliced)
  };

  /// Prune provenance of a solved/ordered COP from its outcome string.
  /// Filter outcomes (static-pruned/pruned/qc-fail) carry their stage
  /// explicitly at the call site instead.
  static const char *stageForOutcome(const char *Outcome) {
    if (std::strcmp(Outcome, "unsat") == 0)
      return "unsat";
    if (std::strcmp(Outcome, "timeout") == 0)
      return "budget";
    if (std::strcmp(Outcome, "ordered") == 0)
      return "ordered";
    return "none"; // sat / race: nothing killed the pair
  }

  void emitCopEvent(const Cop &C, const char *Outcome, const char *Stage) {
    CopEventExtra Extra;
    Extra.Stage = Stage;
    emitCopEventFields(C, Outcome, false, 0, 0, 0, 0, Extra);
  }

  /// The cop event; formula sizes are measured on the solve path and
  /// emitted here, in COP order.
  void emitCopEventFields(const Cop &C, const char *Outcome,
                          bool HasFormula, uint64_t Nodes, uint64_t Atoms,
                          uint64_t OrderVars, double SolveSeconds,
                          const CopEventExtra &Extra) {
    TraceEventSink *Sink = activeSink();
    if (!Sink)
      return;
    JsonObject O;
    O.field("type", "cop")
        .field("window", State.Stats.Windows - 1)
        .field("first", static_cast<uint64_t>(C.First))
        .field("second", static_cast<uint64_t>(C.Second))
        .field("loc_first", T.locName(T[C.First].Loc))
        .field("loc_second", T.locName(T[C.Second].Loc))
        .field("variable", T.varName(T[C.First].Target))
        .field("outcome", Outcome)
        .field("stage", Extra.Stage);
    if (HasFormula)
      O.field("formula_nodes", Nodes)
          .field("difference_atoms", Atoms)
          .field("order_vars", OrderVars)
          .field("solve_seconds", SolveSeconds)
          .field("encode_seconds", Extra.EncodeSeconds)
          .field("witness_seconds", Extra.WitnessSeconds)
          .field("mem_delta_bytes", Extra.MemDeltaBytes)
          .field("attempts", static_cast<uint64_t>(Extra.Attempts))
          .field("cone_events", Extra.ConeEvents);
    Sink->write(O);
  }

  /// Feeds one decided COP into the run's cost ledger (telemetry-gated;
  /// called only from phase C, so the ledger needs no lock).
  void recordCopCost(const Cop &C, const char *Outcome,
                     double SolveSeconds, const CopEventExtra &Extra) {
    if (!Telemetry::enabled())
      return;
    CopCost Cost;
    Cost.Window = State.Stats.Windows - 1;
    Cost.LocFirst = T.locName(T[C.First].Loc);
    Cost.LocSecond = T.locName(T[C.Second].Loc);
    Cost.Variable = T.varName(T[C.First].Target);
    Cost.Outcome = Outcome;
    Cost.EncodeSeconds = Extra.EncodeSeconds;
    Cost.SolveSeconds = SolveSeconds;
    Cost.WitnessSeconds = Extra.WitnessSeconds;
    Cost.MemDeltaBytes = Extra.MemDeltaBytes;
    Cost.Attempts = Extra.Attempts;
    Cost.ConeEvents = Extra.ConeEvents;
    State.Stats.TopCosts.recordCop(std::move(Cost));
  }

  void emitSolveEvent(const Cop &C, const char *Outcome, double Seconds) {
    TraceEventSink *Sink = activeSink();
    if (!Sink)
      return;
    JsonObject O;
    O.field("type", "solve")
        .field("window", State.Stats.Windows - 1)
        .field("first", static_cast<uint64_t>(C.First))
        .field("second", static_cast<uint64_t>(C.Second))
        .field("solver", SolverName.c_str())
        .field("outcome", Outcome)
        .field("seconds", Seconds);
    Sink->write(O);
  }

  Technique Tech;
  /// Backend named in solve events ("none" without a solver).
  std::string SolverName = "none";
  /// The window's COPs, aligned with its candidates, and what phase A
  /// learned about them.
  std::vector<Cop> Cops;
  std::vector<CopInfo> Info;
  /// The window runs the Hybrid fast paths (WCP prune and short-circuit).
  bool WcpFastPath = false;
  /// SolverCalls at window start, for the window's cost-ledger entry.
  uint64_t SolvesBefore = 0;
};

} // namespace

std::unique_ptr<WindowPolicy>
rvp::makeRacePolicy(const Trace &T, Technique Tech,
                    const DetectorOptions &Options) {
  return std::make_unique<RacePolicy>(T, Tech, Options);
}

DetectionResult rvp::detectRaces(const Trace &T, Technique Tech,
                                 const DetectorOptions &Options) {
  RacePolicy Policy(T, Tech, Options);
  runWindows(Policy);
  return Policy.result();
}
