//===- detect/WindowDriver.cpp - One driver for every property ------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/WindowDriver.h"

#include "detect/Checkpoint.h"
#include "detect/Resilience.h"
#include "smt/Solver.h"
#include "support/CommandLine.h"
#include "support/FaultInjector.h"
#include "support/Profile.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>

using namespace rvp;

namespace {

/// An unknown pair's display form. The variable is shown for access pairs
/// (races, atomicity) and left empty for lock requests (deadlocks).
UnknownReport unknownReport(const Trace &T, EventId First, EventId Second,
                            uint32_t Attempts) {
  UnknownReport U;
  U.First = First;
  U.Second = Second;
  U.LocFirst = T.locName(T[First].Loc);
  U.LocSecond = T.locName(T[Second].Loc);
  if (T[First].isAccess())
    U.Variable = T.varName(T[First].Target);
  U.Attempts = Attempts;
  return U;
}

/// The payload's `counters` line, in order: every DetectionStats counter
/// a window adds to, then the run tallies.
template <typename StateT> auto counterFields(StateT &S) {
  return std::array<decltype(&S.QcHits), 18>{
      &S.Stats.Windows,          &S.Stats.Cops,
      &S.Stats.QcPassed,         &S.Stats.CopsPrunedStatic,
      &S.Stats.SolverCalls,      &S.Stats.SolverTimeouts,
      &S.Stats.SolverRetries,    &S.Stats.DegradedSessions,
      &S.Stats.WcpRaces,         &S.Stats.WcpPruned,
      &S.Stats.WcpResidue,       &S.Stats.WcpShortCircuits,
      &S.Stats.WcpMismatches,    &S.QcHits,
      &S.QcMisses,               &S.SigPruned,
      &S.SpeculativeSolves,      &S.BackendFallbacks};
}

bool parseU64(std::string_view S, uint64_t &Out) {
  int64_t V = 0;
  if (!parseInt(S, V) || V < 0)
    return false;
  Out = static_cast<uint64_t>(V);
  return true;
}

bool parseHex(std::string_view S, uint64_t &Out) {
  if (S.empty() || S.size() > 16)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    int D;
    if (C >= '0' && C <= '9')
      D = C - '0';
    else if (C >= 'a' && C <= 'f')
      D = C - 'a' + 10;
    else
      return false;
    V = V << 4 | static_cast<uint64_t>(D);
  }
  Out = V;
  return true;
}

void appendKeySet(std::string &Out, const char *Tag,
                  const std::unordered_set<uint64_t> &Set) {
  // Sorted so the same state always serializes to the same bytes.
  std::vector<uint64_t> Keys(Set.begin(), Set.end());
  std::sort(Keys.begin(), Keys.end());
  Out += Tag;
  for (uint64_t K : Keys)
    Out += formatString(" %llx", static_cast<unsigned long long>(K));
  Out += "\n";
}

/// The window's events sorted by their \p Model positions (unconstrained
/// events last, in trace order). \p Lead sorts first among equal
/// positions and takes \p Partner's position when both are set.
std::vector<EventId> orderWindow(Span Window, const OrderModel &Model,
                                 EventId Lead, EventId Partner) {
  std::vector<EventId> Order;
  Order.reserve(Window.size());
  for (EventId Id = Window.Begin; Id < Window.End; ++Id)
    Order.push_back(Id);
  auto KeyOf = [&](EventId Id) -> std::pair<int64_t, int64_t> {
    auto It = Model.find(Id == Lead && Partner != InvalidEvent ? Partner : Id);
    return {It == Model.end() ? INT64_MAX : It->second,
            Id == Lead ? -1 : static_cast<int64_t>(Id)};
  };
  std::sort(Order.begin(), Order.end(),
            [&](EventId A, EventId B) { return KeyOf(A) < KeyOf(B); });
  return Order;
}

/// Formula-size accounting after one encode: total nodes, difference
/// atoms, distinct cf boolean variables, and order variables reachable
/// from the root. \p NodesBefore is the builder's size before this
/// encode: with a per-query builder it is 0 and the whole builder counts;
/// with the incremental path's shared builder only this query's newly
/// hash-consed nodes count, so encoder.nodes measures real encoding work,
/// not re-reads of shared structure. The sizes also go into \p R for the
/// trace events.
void recordFormulaMetrics(const FormulaBuilder &FB, size_t NodesBefore,
                          NodeRef Root, CandidateOutcome &R) {
  std::unordered_set<uint32_t> BoolIds;
  for (size_t I = NodesBefore; I < FB.numNodes(); ++I) {
    const FormulaNode &N = FB.node(static_cast<NodeRef>(I));
    if (N.Kind == FormulaKind::Atom)
      ++R.DifferenceAtoms;
    else if (N.Kind == FormulaKind::BoolVar)
      BoolIds.insert(N.VarA);
  }
  R.FormulaNodes = FB.numNodes() - NodesBefore;
  R.OrderVars = FB.collectVars(Root).size();
  MetricsRegistry &Reg = MetricsRegistry::global();
  Reg.counter("encoder.formulas").inc();
  Reg.counter("encoder.nodes").add(R.FormulaNodes);
  Reg.counter("encoder.difference_atoms").add(R.DifferenceAtoms);
  Reg.counter("encoder.bool_vars").add(BoolIds.size());
  Reg.counter("encoder.order_vars").add(R.OrderVars);
}

/// Window-scoped solve state: the SolveHost owning the incremental session
/// (or the one-shot solver) and its degradation policy, plus the builder
/// the session's queries share. One for the window without a pool, one per
/// worker with one.
struct SolveCtx {
  FormulaBuilder FB;
  std::unique_ptr<SolveHost> Host;
};

/// Canonical witness model: re-encode the candidate into a fresh
/// builder and solve it one-shot — exactly the instance the legacy path
/// builds, so witnesses are byte-identical across modes and independent
/// of session history. (Reusing the shared window builder would not do:
/// the simplifier canonicalizes And/Or children by node reference, so
/// ref numbering from earlier queries reshapes the DAG and with it the
/// model the solver happens to pick.) The encoding is unsliced, since a
/// sliced model has no positions for events outside the cone, and
/// unfolded, so witness orders match unfolded runs. Sharing the
/// WindowEncoding makes the encoder construction free. Tallied as
/// solver.witness_resolves, not as a decision (solver_calls is
/// mode-invariant).
SatResult rederiveModel(const WindowPolicy &P, const WindowScope &W, size_t I,
                        OrderModel &Model) {
  EncoderOptions Full;
  Full.SubstituteRaceVars = W.Encoder->options().SubstituteRaceVars;
  Full.Slice = false;
  RaceEncoder Unsliced(W.Encoder->sharedWindowEncoding(), Full);
  FormulaBuilder FreshFB;
  NodeRef Root = P.encode(Unsliced, I, FreshFB, nullptr);
  std::unique_ptr<SmtSolver> Fresh = createSolverByName(P.Options.SolverName);
  if (!Fresh)
    Fresh = createIdlSolver();
  if (Telemetry::enabled())
    MetricsRegistry::global().counter("solver.witness_resolves").inc();
  return Fresh->solve(FreshFB, Root,
                      Deadline::after(P.Options.PerCopBudgetSeconds), &Model);
}

/// Orders and validates the witness of a satisfiable candidate. A
/// Proven candidate takes its verdict from the re-derivation; a decided
/// one keeps the decision's.
void witness(const WindowPolicy &P, const WindowScope &W, const Candidate &C,
             size_t I, OrderModel &Model, bool Rederive,
             CandidateOutcome &R) {
  ScopedPhaseTimer WitnessPhase("witness");
  Timer WitnessClock;
  SatResult Sat = Rederive ? rederiveModel(P, W, I, Model) : SatResult::Sat;
  if (!R.Decided)
    R.Sat = Sat;
  if (R.Sat == SatResult::Sat) {
    EventId Lead = InvalidEvent, Partner = InvalidEvent;
    if (P.leadsWitness()) {
      Lead = C.First;
      if (W.Encoder->options().SubstituteRaceVars)
        Partner = C.Second;
    }
    R.Witness = orderWindow(W.Window, Model, Lead, Partner);
    R.WitnessValid = P.witnessValid(W, I, R.Witness);
  }
  R.WitnessSeconds = WitnessClock.seconds();
}

/// The solve path of one candidate: encode, decide, witness. Touches
/// only immutable window state, the registry (atomic), \p Ctx, and
/// \p R, so it runs on any pool worker.
void solve(const WindowPolicy &P, const WindowScope &W, const Candidate &C,
           size_t I, SolveCtx &Ctx, CandidateOutcome &R) {
  R.Done = true;
  const bool Witnesses = P.Options.CollectWitnesses && P.witnesses();
  OrderModel Model;
  if (C.Filter == Candidate::Verdict::Proven) {
    R.Sat = SatResult::Sat;
    if (Witnesses)
      witness(P, W, C, I, Model, /*Rederive=*/true, R);
    return;
  }
  if (!Ctx.Host)
    Ctx.Host = std::make_unique<SolveHost>(
        P.Options.SolverName, P.Options.Incremental,
        P.Options.PerCopBudgetSeconds, P.Options.RetryBudgets,
        P.Options.RetryJitterSeed + P.State.Stats.Windows);
  // Incremental: the host's session decides every query of the window
  // (of the worker, with a pool) under its own selector, over one
  // hash-consing builder; legacy: one fresh builder and one-shot solve
  // per query (docs/INCREMENTAL_SOLVING.md).
  FormulaBuilder OwnFB;
  FormulaBuilder &FB = P.Options.Incremental ? Ctx.FB : OwnFB;
  size_t NodesBefore = FB.numNodes();
  NodeRef Root;
  EncodeStats Enc;
  {
    ScopedPhaseTimer EncodePhase("encode");
    Timer EncodeClock;
    Root = P.encode(*W.Encoder, I, FB, &Enc);
    R.EncodeSeconds = EncodeClock.seconds();
  }
  R.ConeEvents = Enc.ConeEvents;
  R.MemDeltaBytes = (FB.numNodes() - NodesBefore) * sizeof(FormulaNode);
  if (Telemetry::enabled())
    recordFormulaMetrics(FB, NodesBefore, Root, R);
  R.Decided = true;
  SolveHost::Outcome Decision;
  {
    ScopedPhaseTimer SolvePhase("solve");
    Timer SolveClock;
    Decision = Ctx.Host->decide(
        FB, Root, P.Options.CollectWitnesses ? &Model : nullptr);
    R.SolveSeconds = SolveClock.seconds();
  }
  R.Sat = Decision.Sat;
  R.Attempts = Decision.Attempts;
  if (Telemetry::enabled())
    MetricsRegistry::global()
        .histogram("solver.latency_seconds")
        .record(R.SolveSeconds);
  // A sliced model only orders the cone, and a session's model depends
  // on its history, so either way the witness model is re-derived.
  const EncoderOptions &EO = W.Encoder->options();
  if (R.Sat == SatResult::Sat && Witnesses)
    witness(P, W, C, I, Model,
            !Decision.ModelFromSolve || (EO.Slice && EO.SubstituteRaceVars),
            R);
}

/// Folds one host's resilience tallies into the run's stats.
void absorbHostStats(RunState &S, const ResilienceStats &R) {
  S.Stats.SolverRetries += R.Retries;
  S.Stats.DegradedSessions += R.DegradedSessions;
  S.BackendFallbacks += R.BackendFallbacks;
}

/// Lands the run's tallies in the registry, once per run.
void flushTelemetry(const WindowPolicy &P) {
  const RunState &S = P.State;
  MetricsRegistry &Reg = MetricsRegistry::global();
  Reg.counter("detect.windows").add(S.Stats.Windows);
  Reg.counter("detect.cops").add(S.Stats.Cops);
  Reg.counter("solver.calls").add(S.Stats.SolverCalls);
  Reg.counter("solver.timeouts").add(S.Stats.SolverTimeouts);
  Reg.counter("solver.retries").add(S.Stats.SolverRetries);
  Reg.counter("solver.degraded_sessions").add(S.Stats.DegradedSessions);
  Reg.counter("solver.backend_fallbacks").add(S.BackendFallbacks);
  Reg.counter("detect.unknown_cops").add(S.Stats.UnknownCops);
  Reg.counter("detect.resumed_windows").add(S.ResumedWindows);
  Reg.counter("detect.speculative_solves").add(S.SpeculativeSolves);
  P.flushTelemetry(Reg);
}

} // namespace

WindowDriver::WindowDriver(WindowPolicy &Policy)
    : T(Policy.T), P(Policy), S(Policy.State) {
  if (P.solves()) {
    uint32_t Jobs = P.Options.Jobs == 0 ? ThreadPool::defaultWorkerCount()
                                        : P.Options.Jobs;
    if (Jobs > 1)
      Pool = std::make_unique<ThreadPool>(Jobs);
    S.Stats.Jobs = Jobs;
  }
}

WindowDriver::~WindowDriver() = default;

void WindowDriver::push(Span Window, bool Degrade) {
  std::optional<DetectorOptions> Saved;
  if (Degrade) {
    // Load shedding: the linear WCP tier answers this window. Its
    // verdicts are weakly sound (docs/TIERS.md) and carry no witnesses.
    Saved = P.Options;
    P.Options.Tier = DetectTier::Vc;
    P.Options.CheckTiers = false;
    P.Options.CollectWitnesses = false;
  }
  // Variables the trace named since the last window start at their
  // initial values.
  for (VarId Var = static_cast<VarId>(S.Values.size()); Var < T.numVars();
       ++Var)
    S.Values.push_back(T.initialValueOf(Var));
  ++S.Stats.Windows;
  {
    ScopedPhaseTimer WindowPhase("window");
    Timer WindowClock;
    WindowScope W;
    W.Window = Window;
    std::vector<Candidate> Cands;
    size_t Count = P.enumerate(W, Cands);
    S.Stats.Cops += Count;
    if (!Cands.empty())
      decideAll(W, Cands);
    P.windowDone(W, Count, WindowClock.seconds());
  }
  for (EventId Id = Window.Begin; Id < Window.End; ++Id)
    if (T[Id].isWrite())
      S.Values[T[Id].Target] = T[Id].Data;
  if (Saved)
    P.Options = std::move(*Saved);
}

void WindowDriver::finish() {
  S.Stats.UnknownCops = S.Unknowns.size();
  S.Stats.Seconds = Clock.seconds();
  if (Telemetry::enabled()) {
    flushTelemetry(P);
    S.Stats.Telemetry = Telemetry::instance().snapshot();
  }
}

/// Phases B and C of the COP loop over the candidates phase A produced.
void WindowDriver::decideAll(const WindowScope &W,
                             const std::vector<Candidate> &Cands) {
  using Verdict = Candidate::Verdict;
  std::vector<CandidateOutcome> Out(Cands.size());

  // Phase B: pre-solve every survivor whose signature is still open at
  // window start as an independent task; nothing writes Seen before
  // phase C. The trailing context belongs to the main thread, which
  // helps drain the queue inside parallelFor and reports
  // currentWorkerIndex() == -1.
  if (Pool) {
    const bool Observing = Telemetry::enabled();
    std::vector<PhaseTree> Trees(Observing ? Pool->numWorkers() : 0);
    std::vector<SolveCtx> Contexts(Pool->numWorkers() + 1);
    Pool->parallelFor(0, Cands.size(), [&](size_t I) {
      const Candidate &C = Cands[I];
      if (C.Filter == Verdict::Early || C.Filter == Verdict::Late ||
          S.Seen.count(C.Sig))
        return;
      int Worker = Pool->currentWorkerIndex();
      std::optional<ThreadPhaseScope> Scope;
      if (Observing && Worker >= 0)
        Scope.emplace(&Trees[Worker]);
      solve(P, W, C, I,
            Contexts[Worker >= 0 ? static_cast<size_t>(Worker)
                                 : Contexts.size() - 1],
            Out[I]);
    });
    for (const SolveCtx &Ctx : Contexts)
      if (Ctx.Host)
        absorbHostStats(S, Ctx.Host->stats());
    // The main thread is inside the "window" phase here, so the merge
    // nests each worker's encode/solve/witness times under it.
    for (const PhaseTree &Tree : Trees)
      Telemetry::instance().phases().absorb(Tree);
  }

  // Phase C: collect in candidate order against the live signature set,
  // so reports, stats, and trace events are the same for every --jobs
  // value. A candidate phase B did not touch is solved here, on demand
  // and after the signature check, so a pool-less run never solves
  // speculatively. (A candidate near the per-COP budget can still tip to
  // timeout under contention: wall-clock budgets are the one
  // scheduling-dependent input.)
  SolveCtx Main;
  for (size_t I = 0; I < Cands.size(); ++I) {
    const Candidate &C = Cands[I];
    CandidateOutcome &R = Out[I];
    if (C.Filter == Verdict::Early) {
      P.filtered(I);
      continue;
    }
    if (S.Seen.count(C.Sig)) {
      ++S.SigPruned; // signature pruning (Section 4)
      if (R.Decided)
        ++S.SpeculativeSolves;
      P.signaturePruned(I);
      continue;
    }
    if (C.Filter == Verdict::Late) {
      P.filtered(I);
      continue;
    }
    if (!R.Done)
      solve(P, W, C, I, Main, R);
    if (R.Decided)
      ++S.Stats.SolverCalls;
    if (R.Sat == SatResult::Unknown) {
      ++S.Stats.SolverTimeouts;
      S.recordUnknown(T, C, R.Attempts);
    } else if (R.Sat == SatResult::Sat) {
      S.found(C.Sig);
    }
    P.decided(I, R);
  }
  if (Main.Host)
    absorbHostStats(S, Main.Host->stats());
}

/// Serializes everything accumulated across windows (docs/ROBUSTNESS.md).
/// Only event ids, keys, and counters are stored: display strings are
/// re-derived from the trace on restore, so the payload stays small and
/// cannot drift from the trace (the store's fingerprint pins trace and
/// flags).
std::string WindowDriver::serialize() const {
  std::string Out = formatString("property %s\ncounters", P.Name);
  for (const uint64_t *Field : counterFields(S))
    Out += formatString(" %llu", static_cast<unsigned long long>(*Field));
  Out += "\nvalues";
  for (Value V : S.Values)
    Out += formatString(" %lld", static_cast<long long>(V));
  Out += "\n";
  appendKeySet(Out, "seen", S.Seen);
  appendKeySet(Out, "qcsig", S.QcSeen);
  P.encodeFindings(Out);
  for (size_t I = 0; I < S.Unknowns.size(); ++I)
    Out += formatString("unknown %llu %llu %u %llx\n",
                        static_cast<unsigned long long>(S.Unknowns[I].First),
                        static_cast<unsigned long long>(S.Unknowns[I].Second),
                        static_cast<unsigned>(S.Unknowns[I].Attempts),
                        static_cast<unsigned long long>(S.UnknownSigs[I]));
  return Out;
}

/// Inverse of serialize. All-or-nothing: any malformed or out-of-range
/// field, and any payload of another property, rejects the snapshot (the
/// run then starts from scratch, which is always sound — checkpoints
/// only save time).
bool WindowDriver::restore(std::string_view Payload) {
  std::array<uint64_t, std::tuple_size_v<decltype(counterFields(S))>>
      Counters{};
  std::vector<Value> Values;
  std::unordered_set<uint64_t> Seen, QcSeen;
  std::vector<UnknownReport> Unknowns;
  std::vector<uint64_t> UnknownSigs;
  std::vector<std::vector<std::string_view>> Findings;
  bool SawProperty = false, SawCounters = false, SawValues = false;

  for (std::string_view Line : split(Payload, '\n')) {
    Line = trim(Line);
    if (Line.empty())
      continue;
    std::vector<std::string_view> F = split(Line, ' ');
    if (F[0] == "property") {
      if (F.size() != 2 || F[1] != P.Name)
        return false;
      SawProperty = true;
    } else if (F[0] == "counters") {
      if (F.size() != Counters.size() + 1)
        return false;
      for (size_t I = 0; I < Counters.size(); ++I)
        if (!parseU64(F[I + 1], Counters[I]))
          return false;
      SawCounters = true;
    } else if (F[0] == "values") {
      for (size_t I = 1; I < F.size(); ++I) {
        int64_t V = 0;
        if (!parseInt(F[I], V))
          return false;
        Values.push_back(static_cast<Value>(V));
      }
      SawValues = true;
    } else if (F[0] == "seen" || F[0] == "qcsig") {
      std::unordered_set<uint64_t> &Set = F[0] == "seen" ? Seen : QcSeen;
      for (size_t I = 1; I < F.size(); ++I) {
        uint64_t K = 0;
        if (!parseHex(F[I], K))
          return false;
        Set.insert(K);
      }
    } else if (F[0] == "unknown") {
      EventId First = InvalidEvent, Second = InvalidEvent;
      uint64_t Attempts = 0, Sig = 0;
      if (F.size() != 5 || !parseEventField(T, F[1], First) ||
          !parseEventField(T, F[2], Second) || !parseU64(F[3], Attempts) ||
          Attempts == 0 || !parseHex(F[4], Sig))
        return false;
      Unknowns.push_back(unknownReport(T, First, Second,
                                       static_cast<uint32_t>(Attempts)));
      UnknownSigs.push_back(Sig);
    } else {
      Findings.push_back(std::move(F));
    }
  }
  if (!SawProperty || !SawCounters || !SawValues ||
      Values.size() > T.numVars() || !P.restoreFindings(Findings))
    return false;
  // A snapshot of a streamed session can predate variables the trace
  // names later; push() gives them their initial values.
  auto Fields = counterFields(S);
  for (size_t I = 0; I < Fields.size(); ++I)
    *Fields[I] = Counters[I];
  S.Values = std::move(Values);
  S.Seen = std::move(Seen);
  S.QcSeen = std::move(QcSeen);
  S.Unknowns = std::move(Unknowns);
  S.UnknownSigs = std::move(UnknownSigs);
  return true;
}

void RunState::recordUnknown(const Trace &T, const Candidate &C,
                             uint32_t Attempts) {
  if (std::find(UnknownSigs.begin(), UnknownSigs.end(), C.Sig) !=
      UnknownSigs.end())
    return;
  Unknowns.push_back(unknownReport(T, C.First, C.Second, Attempts));
  UnknownSigs.push_back(C.Sig);
}

void RunState::found(uint64_t Sig) {
  Seen.insert(Sig);
  auto It = std::find(UnknownSigs.begin(), UnknownSigs.end(), Sig);
  if (It == UnknownSigs.end())
    return;
  Unknowns.erase(Unknowns.begin() + (It - UnknownSigs.begin()));
  UnknownSigs.erase(It);
}

void rvp::runWindows(WindowPolicy &Policy) {
  const DetectorOptions &Options = Policy.Options;
  WindowDriver Driver(Policy);
  // Resume: with --checkpoint, reload everything accumulated up to the
  // last completed window and skip straight past it. The fingerprint
  // check inside the store guarantees the snapshot came from the same
  // trace and flags, so the continued run is byte-identical to an
  // uninterrupted one (docs/ROBUSTNESS.md).
  CheckpointStore Ckpt(Options.CheckpointDir, Options.CheckpointFingerprint);
  uint64_t SkipWindows = 0;
  if (Ckpt.enabled()) {
    std::string Payload;
    CheckpointLoad Outcome = CheckpointLoad::None;
    int64_t Last = Ckpt.loadLatest(Payload, &Outcome);
    if (Outcome == CheckpointLoad::FingerprintMismatch)
      CheckpointStore::refuseMismatch(Ckpt);
    if (Last >= 0 && Driver.restore(Payload))
      SkipWindows = static_cast<uint64_t>(Last) + 1;
    Policy.State.ResumedWindows = SkipWindows;
  }
  {
    ScopedPhaseTimer TopPhase(Policy.Phase);
    uint64_t Index = 0;
    for (Span Window : splitWindows(Policy.T, Options.WindowSize)) {
      if (Index++ < SkipWindows)
        continue;
      Driver.push(Window);
      if (Ckpt.enabled()) {
        Ckpt.save(Index - 1, Driver.serialize());
        if (ProfileCollector *Prof = ProfileCollector::active())
          Prof->instant("checkpoint-save", "resilience");
        // Deterministic kill point for the resume tests: dies exactly at
        // a window barrier, after the snapshot is durable.
        if (FaultInjector::shouldFail(faults::DetectAbort))
          std::_Exit(ExitInternal);
      }
    }
  }
  Driver.finish();
}

bool rvp::parseEventField(const Trace &T, std::string_view S, EventId &Out) {
  uint64_t V = 0;
  if (!parseU64(S, V) || V >= T.size())
    return false;
  Out = static_cast<EventId>(V);
  return true;
}

void rvp::appendWitnessFields(std::string &Out, bool Valid,
                              const std::vector<EventId> &Witness) {
  Out += Valid ? " 1" : " 0";
  for (EventId Id : Witness)
    Out += formatString(" %llu", static_cast<unsigned long long>(Id));
  Out += "\n";
}

bool rvp::parseWitnessFields(const Trace &T,
                             const std::vector<std::string_view> &F,
                             size_t From, bool &Valid,
                             std::vector<EventId> &Witness) {
  if (F.size() <= From || (F[From] != "0" && F[From] != "1"))
    return false;
  Valid = F[From] == "1";
  Witness.clear();
  for (size_t I = From + 1; I < F.size(); ++I) {
    EventId Id = InvalidEvent;
    if (!parseEventField(T, F[I], Id))
      return false;
    Witness.push_back(Id);
  }
  return true;
}
