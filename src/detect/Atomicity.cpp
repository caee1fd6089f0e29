//===- detect/Atomicity.cpp - Maximal atomicity-violation detection ----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Atomicity.h"

#include "detect/Lockset.h"
#include "detect/WindowDriver.h"
#include "detect/WitnessChecker.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace rvp;

const char *rvp::atomicityPatternName(AtomicityPattern Pattern) {
  switch (Pattern) {
  case AtomicityPattern::ReadWriteRead:
    return "r-W-r (unrepeatable read)";
  case AtomicityPattern::WriteReadWrite:
    return "w-R-w (dirty read)";
  case AtomicityPattern::WriteWriteRead:
    return "w-W-r (remote overwrite observed)";
  case AtomicityPattern::ReadWriteWrite:
    return "r-W-w (lost local update)";
  }
  RVP_UNREACHABLE("unknown atomicity pattern");
}

bool rvp::classifyAtomicity(const Event &First, const Event &Remote,
                            const Event &Second, AtomicityPattern &Out) {
  const bool F = First.isWrite();
  const bool R = Remote.isWrite();
  const bool S = Second.isWrite();
  if (!F && R && !S) {
    Out = AtomicityPattern::ReadWriteRead;
    return true;
  }
  if (F && !R && S) {
    Out = AtomicityPattern::WriteReadWrite;
    return true;
  }
  if (F && R && !S) {
    Out = AtomicityPattern::WriteWriteRead;
    return true;
  }
  if (!F && R && S) {
    Out = AtomicityPattern::ReadWriteWrite;
    return true;
  }
  return false; // remote read between non-writes etc.: serializable
}

bool AtomicityResult::hasViolationAt(const std::string &First,
                                     const std::string &Remote,
                                     const std::string &Second) const {
  for (const AtomicityReport &V : Violations)
    if (V.LocFirst == First && V.LocRemote == Remote &&
        V.LocSecond == Second)
      return true;
  return false;
}

namespace {

/// Signature of a violation: the three static locations.
uint64_t signatureOf(const Trace &T, EventId A1, EventId B, EventId A2) {
  uint64_t H = 1469598103934665603ULL;
  for (LocId Loc : {T[A1].Loc, T[B].Loc, T[A2].Loc}) {
    H ^= Loc;
    H *= 1099511628211ULL;
  }
  return H;
}

/// The atomicity property on the shared window driver: one candidate per
/// (region, local access pair, remote access) in a non-serializable
/// pattern, queried with the "between" formula.
class AtomicityPolicy final : public WindowPolicy {
public:
  AtomicityPolicy(const Trace &T, const DetectorOptions &Options)
      : WindowPolicy(T, Options, "atomicity", "atomicity") {}

  std::vector<AtomicityReport> Violations;

  size_t enumerate(WindowScope &W, std::vector<Candidate> &Out) override {
    {
      ScopedPhaseTimer ClosurePhase("closure");
      W.Mhb.emplace(T, W.Window, ClosureConfig::mhb());
    }
    EncoderOptions EncOpts; // no substitution for the between-query
    EncOpts.Slice = Options.Slice;
    EncOpts.Fold = Options.CfFold; // decision path only; rederive is full
    W.Encoder.emplace(T, W.Window, *W.Mhb, State.Values, EncOpts);

    ScopedPhaseTimer CopPhase("cop-enum");
    LocksetIndex Locksets(T, W.Window);
    Cands.clear();
    for (LockId Lock = 0; Lock < T.numLocks(); ++Lock) {
      for (const LockPair &Region : T.lockPairsOf(Lock)) {
        if (Region.AcquireId == InvalidEvent ||
            Region.ReleaseId == InvalidEvent ||
            !W.Window.contains(Region.AcquireId) ||
            !W.Window.contains(Region.ReleaseId))
          continue;
        // Local same-variable access pairs inside the region.
        std::vector<EventId> Local;
        for (EventId Id = Region.AcquireId + 1; Id < Region.ReleaseId;
             ++Id)
          if (T[Id].Tid == Region.Tid && T[Id].isAccess() &&
              !T[Id].Volatile)
            Local.push_back(Id);
        for (size_t I = 0; I < Local.size(); ++I) {
          for (size_t J = I + 1; J < Local.size(); ++J) {
            EventId A1 = Local[I];
            EventId A2 = Local[J];
            if (T[A1].Target != T[A2].Target)
              continue;
            // Candidate remote accesses on the same variable.
            for (EventId B : T.accessesOf(T[A1].Target)) {
              if (!W.Window.contains(B) || T[B].Tid == Region.Tid ||
                  T[B].Volatile)
                continue;
              AtomCandidate C;
              if (!classifyAtomicity(T[A1], T[B], T[A2], C.Pattern))
                continue;
              C.Lock = Lock;
              C.Region = Region;
              C.A1 = A1;
              C.B = B;
              C.A2 = A2;
              Candidate &Cand = Out.emplace_back();
              Cand.Sig = signatureOf(T, A1, B, A2);
              Cand.First = A1;
              Cand.Second = B;
              // Quick filters: holding the region's lock, or an MHB order
              // incompatible with "between", make the query
              // unsatisfiable.
              if (Options.UseQuickCheck) {
                const std::vector<LockId> &Held = Locksets.heldAt(B);
                C.MhbOrdered = W.Mhb->ordered(B, A1) || W.Mhb->ordered(A2, B);
                if (C.MhbOrdered ||
                    std::find(Held.begin(), Held.end(), Lock) != Held.end())
                  Cand.Filter = Candidate::Verdict::Late;
              }
              Cands.push_back(C);
            }
          }
        }
      }
    }
    return Out.size();
  }

  NodeRef encode(const RaceEncoder &E, size_t I, FormulaBuilder &FB,
                 EncodeStats *Stats) const override {
    const AtomCandidate &C = Cands[I];
    return E.encodeBetween(FB, C.A1, C.B, C.A2, Stats);
  }

  bool witnessValid(const WindowScope &W, size_t I,
                    const std::vector<EventId> &Witness) const override {
    const AtomCandidate &C = Cands[I];
    return checkAtomicityWitness(T, W.Window, Witness, C.A1, C.B, C.A2,
                                 *W.Encoder, *W.Mhb, State.Values)
        .Ok;
  }

  /// Under the WCP tier the quick check's MHB component is its own
  /// counted prune stage (docs/TIERS.md); the reject set and QcPassed are
  /// identical either way since rejects emit nothing.
  void filtered(size_t I) override {
    if (Options.Tier != DetectTier::Smt && Cands[I].MhbOrdered)
      ++State.Stats.WcpPruned;
  }

  void decided(size_t I, CandidateOutcome &R) override {
    if (Options.UseQuickCheck)
      ++State.Stats.QcPassed;
    if (R.Sat != SatResult::Sat)
      return;
    const AtomCandidate &C = Cands[I];
    AtomicityReport V;
    V.RegionLock = C.Lock;
    V.RegionAcquire = C.Region.AcquireId;
    V.RegionRelease = C.Region.ReleaseId;
    V.First = C.A1;
    V.Remote = C.B;
    V.Second = C.A2;
    V.Pattern = C.Pattern;
    describe(V);
    V.Witness = std::move(R.Witness);
    V.WitnessValid = R.WitnessValid;
    Violations.push_back(std::move(V));
  }

  void flushTelemetry(MetricsRegistry &Reg) const override {
    if (State.Stats.WcpPruned)
      Reg.counter("wcp.pruned_cops").add(State.Stats.WcpPruned);
  }

  // Only event ids are stored; display strings, patterns, and the region
  // lock are re-derived from the trace on restore.
  void encodeFindings(std::string &Out) const override {
    for (const AtomicityReport &V : Violations) {
      Out += formatString("viol %llu %llu %llu %llu %llu",
                          static_cast<unsigned long long>(V.RegionAcquire),
                          static_cast<unsigned long long>(V.RegionRelease),
                          static_cast<unsigned long long>(V.First),
                          static_cast<unsigned long long>(V.Remote),
                          static_cast<unsigned long long>(V.Second));
      appendWitnessFields(Out, V.WitnessValid, V.Witness);
    }
  }

  size_t numFindings() const override { return Violations.size(); }

  std::string renderFinding(size_t I,
                            const ReportRenderOptions &) const override {
    return renderAtomicityLine(Violations[I]);
  }

  std::string renderReport(const ReportRenderOptions &) const override {
    return renderAtomicityReport(result());
  }

  AtomicityResult result() const {
    AtomicityResult Result;
    Result.Violations = Violations;
    Result.Unknowns = State.Unknowns;
    Result.Stats = State.Stats;
    return Result;
  }

  bool restoreFindings(
      const std::vector<std::vector<std::string_view>> &Lines) override {
    std::vector<AtomicityReport> Restored;
    for (const std::vector<std::string_view> &F : Lines) {
      AtomicityReport V;
      if (F[0] != "viol" || F.size() < 7 ||
          !parseEventField(T, F[1], V.RegionAcquire) ||
          !parseEventField(T, F[2], V.RegionRelease) ||
          !parseEventField(T, F[3], V.First) ||
          !parseEventField(T, F[4], V.Remote) ||
          !parseEventField(T, F[5], V.Second) ||
          !parseWitnessFields(T, F, 6, V.WitnessValid, V.Witness) ||
          !T[V.RegionAcquire].isAcquire() ||
          T[V.RegionAcquire].Target >= T.numLocks() ||
          !classifyAtomicity(T[V.First], T[V.Remote], T[V.Second],
                             V.Pattern))
        return false;
      V.RegionLock = T[V.RegionAcquire].Target;
      describe(V);
      Restored.push_back(std::move(V));
    }
    Violations = std::move(Restored);
    return true;
  }

private:
  /// One enumerated candidate's region, accesses, and pattern.
  struct AtomCandidate {
    LockId Lock = 0;
    LockPair Region;
    EventId A1 = InvalidEvent;
    EventId B = InvalidEvent;
    EventId A2 = InvalidEvent;
    AtomicityPattern Pattern = AtomicityPattern::ReadWriteRead;
    /// The quick check's MHB component rejected it.
    bool MhbOrdered = false;
  };

  void describe(AtomicityReport &V) const {
    V.Variable = T.varName(T[V.First].Target);
    V.LocFirst = T.locName(T[V.First].Loc);
    V.LocRemote = T.locName(T[V.Remote].Loc);
    V.LocSecond = T.locName(T[V.Second].Loc);
  }

  std::vector<AtomCandidate> Cands;
};

} // namespace

std::unique_ptr<WindowPolicy>
rvp::makeAtomicityPolicy(const Trace &T, const DetectorOptions &Options) {
  return std::make_unique<AtomicityPolicy>(T, Options);
}

AtomicityResult
rvp::detectAtomicityViolations(const Trace &T,
                               const DetectorOptions &Options) {
  AtomicityPolicy Policy(T, Options);
  runWindows(Policy);
  return Policy.result();
}
