//===- detect/Deadlock.cpp - Predictive deadlock detection -------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Deadlock.h"

#include "detect/WindowDriver.h"
#include "detect/WitnessChecker.h"
#include "support/StringUtils.h"

#include <unordered_set>
#include <utility>

using namespace rvp;

namespace {

/// A nested acquisition: \p Request acquires \p Inner while the section
/// \p Outer (on \p OuterLock) is held by the same thread.
struct LockDependency {
  ThreadId Tid = 0;
  LockId OuterLock = 0;
  LockId InnerLock = 0;
  EventId Request = InvalidEvent;
  LockPair Outer;        ///< the enclosing critical section
  LockPair RequestPair;  ///< the requested (inner) section
};

uint64_t signatureOf(const Trace &T, EventId ReqA, EventId ReqB) {
  LocId A = T[ReqA].Loc;
  LocId B = T[ReqB].Loc;
  if (A > B)
    std::swap(A, B);
  return (static_cast<uint64_t>(A) << 32) | B;
}

/// The deadlock property on the shared window driver: one candidate per
/// pair of opposite-order lock dependencies of different threads, queried
/// with the hold-and-wait formula.
class DeadlockPolicy final : public WindowPolicy {
public:
  DeadlockPolicy(const Trace &T, const DetectorOptions &Options)
      : WindowPolicy(T, Options, "deadlock", "deadlock") {}

  std::vector<DeadlockReport> Deadlocks;

  size_t enumerate(WindowScope &W, std::vector<Candidate> &Out) override {
    DepPairs.clear();
    {
      ScopedPhaseTimer CopPhase("cop-enum");
      std::vector<LockDependency> Deps = collectDependencies(W.Window);
      for (size_t I = 0; I < Deps.size(); ++I) {
        for (size_t J = I + 1; J < Deps.size(); ++J) {
          const LockDependency &A = Deps[I];
          const LockDependency &B = Deps[J];
          // Opposite-order acquisition by different threads.
          if (A.Tid == B.Tid || A.OuterLock != B.InnerLock ||
              A.InnerLock != B.OuterLock)
            continue;
          DepPairs.push_back({A, B});
          Candidate &Cand = Out.emplace_back();
          Cand.Sig = signatureOf(T, A.Request, B.Request);
          Cand.First = A.Request;
          Cand.Second = B.Request;
        }
      }
    }
    if (Out.empty())
      return 0;
    {
      ScopedPhaseTimer ClosurePhase("closure");
      W.Mhb.emplace(T, W.Window, ClosureConfig::mhb());
    }
    EncoderOptions EncOpts;
    EncOpts.Slice = Options.Slice;
    EncOpts.Fold = Options.CfFold; // decision path only; rederive is full
    W.Encoder.emplace(T, W.Window, *W.Mhb, State.Values, EncOpts);
    // Cheap refutations: an MHB order between a request and the other
    // side's section makes the hold state impossible.
    if (Options.UseQuickCheck) {
      const EventClosure &Mhb = *W.Mhb;
      for (size_t I = 0; I < DepPairs.size(); ++I) {
        const LockDependency &A = DepPairs[I].first;
        const LockDependency &B = DepPairs[I].second;
        if (Mhb.ordered(A.Request, B.Outer.AcquireId) ||
            Mhb.ordered(B.Outer.ReleaseId, A.Request) ||
            Mhb.ordered(B.Request, A.Outer.AcquireId) ||
            Mhb.ordered(A.Outer.ReleaseId, B.Request))
          Out[I].Filter = Candidate::Verdict::Late;
      }
    }
    return Out.size();
  }

  NodeRef encode(const RaceEncoder &E, size_t I, FormulaBuilder &FB,
                 EncodeStats *Stats) const override {
    const auto &[A, B] = DepPairs[I];
    return E.encodeDeadlock(FB, A.Request, B.Request, A.Outer, B.Outer,
                            Stats);
  }

  bool witnessValid(const WindowScope &W, size_t I,
                    const std::vector<EventId> &Witness) const override {
    const auto &[A, B] = DepPairs[I];
    std::unordered_set<EventId> Skip = {A.Request, B.Request};
    if (A.RequestPair.ReleaseId != InvalidEvent)
      Skip.insert(A.RequestPair.ReleaseId);
    if (B.RequestPair.ReleaseId != InvalidEvent)
      Skip.insert(B.RequestPair.ReleaseId);
    return checkDeadlockWitness(T, W.Window, Witness, A.Request, B.Request,
                                A.Outer, B.Outer, Skip, *W.Encoder, *W.Mhb,
                                State.Values)
        .Ok;
  }

  void decided(size_t I, CandidateOutcome &R) override {
    if (Options.UseQuickCheck)
      ++State.Stats.QcPassed;
    if (R.Sat != SatResult::Sat)
      return;
    const auto &[A, B] = DepPairs[I];
    DeadlockReport D;
    D.ThreadA = A.Tid;
    D.ThreadB = B.Tid;
    D.LockHeldByA = A.OuterLock;
    D.LockHeldByB = B.OuterLock;
    D.RequestA = A.Request;
    D.RequestB = B.Request;
    D.LocRequestA = T.locName(T[A.Request].Loc);
    D.LocRequestB = T.locName(T[B.Request].Loc);
    D.Witness = std::move(R.Witness);
    D.WitnessValid = R.WitnessValid;
    Deadlocks.push_back(std::move(D));
  }

  // Only the request events are stored; threads, locks, and display
  // strings are re-derived from them on restore.
  void encodeFindings(std::string &Out) const override {
    for (const DeadlockReport &D : Deadlocks) {
      Out += formatString("dl %llu %llu",
                          static_cast<unsigned long long>(D.RequestA),
                          static_cast<unsigned long long>(D.RequestB));
      appendWitnessFields(Out, D.WitnessValid, D.Witness);
    }
  }

  size_t numFindings() const override { return Deadlocks.size(); }

  std::string renderFinding(size_t I,
                            const ReportRenderOptions &) const override {
    return renderDeadlockLine(T, Deadlocks[I]);
  }

  std::string renderReport(const ReportRenderOptions &) const override {
    return renderDeadlockReport(T, result());
  }

  DeadlockResult result() const {
    DeadlockResult Result;
    Result.Deadlocks = Deadlocks;
    Result.Unknowns = State.Unknowns;
    Result.Stats = State.Stats;
    return Result;
  }

  bool restoreFindings(
      const std::vector<std::vector<std::string_view>> &Lines) override {
    auto parseRequest = [&](std::string_view S, EventId &Out) {
      return parseEventField(T, S, Out) && T[Out].isAcquire() &&
             T[Out].Target < T.numLocks();
    };
    std::vector<DeadlockReport> Restored;
    for (const std::vector<std::string_view> &F : Lines) {
      DeadlockReport D;
      if (F[0] != "dl" || F.size() < 4 || !parseRequest(F[1], D.RequestA) ||
          !parseRequest(F[2], D.RequestB) ||
          !parseWitnessFields(T, F, 3, D.WitnessValid, D.Witness))
        return false;
      D.ThreadA = T[D.RequestA].Tid;
      D.ThreadB = T[D.RequestB].Tid;
      D.LockHeldByB = T[D.RequestA].Target; // A requests B's lock
      D.LockHeldByA = T[D.RequestB].Target;
      D.LocRequestA = T.locName(T[D.RequestA].Loc);
      D.LocRequestB = T.locName(T[D.RequestB].Loc);
      Restored.push_back(std::move(D));
    }
    Deadlocks = std::move(Restored);
    return true;
  }

private:
  std::vector<LockDependency> collectDependencies(Span Window) const {
    // Group each thread's complete in-window sections, then match every
    // acquire against the enclosing sections of the same thread.
    struct ThreadPair {
      LockId Lock;
      LockPair Pair;
    };
    std::vector<std::vector<ThreadPair>> PerThread(T.numThreads());
    for (LockId Lock = 0; Lock < T.numLocks(); ++Lock)
      for (const LockPair &P : T.lockPairsOf(Lock))
        if (P.AcquireId != InvalidEvent && Window.contains(P.AcquireId))
          PerThread[P.Tid].push_back({Lock, P});

    std::vector<LockDependency> Deps;
    for (ThreadId Tid = 0; Tid < T.numThreads(); ++Tid) {
      const std::vector<ThreadPair> &Pairs = PerThread[Tid];
      for (const ThreadPair &Req : Pairs) {
        for (const ThreadPair &Out : Pairs) {
          if (Out.Lock == Req.Lock || Out.Pair.ReleaseId == InvalidEvent ||
              !Window.contains(Out.Pair.ReleaseId))
            continue;
          if (Out.Pair.AcquireId < Req.Pair.AcquireId &&
              Req.Pair.AcquireId < Out.Pair.ReleaseId) {
            LockDependency Dep;
            Dep.Tid = Tid;
            Dep.OuterLock = Out.Lock;
            Dep.InnerLock = Req.Lock;
            Dep.Request = Req.Pair.AcquireId;
            Dep.Outer = Out.Pair;
            Dep.RequestPair = Req.Pair;
            Deps.push_back(Dep);
          }
        }
      }
    }
    return Deps;
  }

  /// The window's dependency pairs, aligned with its candidates.
  std::vector<std::pair<LockDependency, LockDependency>> DepPairs;
};

} // namespace

std::unique_ptr<WindowPolicy>
rvp::makeDeadlockPolicy(const Trace &T, const DetectorOptions &Options) {
  return std::make_unique<DeadlockPolicy>(T, Options);
}

DeadlockResult rvp::detectDeadlocks(const Trace &T,
                                    const DetectorOptions &Options) {
  DeadlockPolicy Policy(T, Options);
  runWindows(Policy);
  return Policy.result();
}
