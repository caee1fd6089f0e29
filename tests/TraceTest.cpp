//===- tests/TraceTest.cpp - Unit tests for the trace model ----------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"
#include "trace/Trace.h"
#include "trace/TraceBuilder.h"
#include "trace/Window.h"
#include "workloads/Fuzzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>

using namespace rvp;

namespace {

/// The running example of the paper: Figure 4's trace (events numbered
/// 1-15 in the paper; ids 0-14 here).
Trace figure4Trace() {
  TraceBuilder B;
  B.fork("t1", "t2", "f1");         // 1
  B.acquire("t1", "l", "f2");       // 2
  B.write("t1", "x", 1, "f3");      // 3
  B.write("t1", "y", 1, "f4");      // 4
  B.release("t1", "l", "f5");       // 5
  B.begin("t2", "f6");              // 6
  B.acquire("t2", "l", "f7");       // 7
  B.read("t2", "y", 1, "f8");       // 8
  B.release("t2", "l", "f9");       // 9
  B.read("t2", "x", 1, "f10");      // 10
  B.branch("t2", "f11");            // 11
  B.write("t2", "z", 1, "f12");     // 12
  B.end("t2", "f13");               // 13
  B.join("t1", "t2", "f14");        // 14
  B.read("t1", "z", 1, "f15");      // 15
  return B.build();
}

} // namespace

TEST(Trace, InterningIsStable) {
  Trace T;
  ThreadId T1 = T.internThread("t1");
  ThreadId T2 = T.internThread("t2");
  EXPECT_NE(T1, T2);
  EXPECT_EQ(T.internThread("t1"), T1);
  EXPECT_EQ(T.threadName(T1), "t1");
  VarId X = T.internVar("x");
  EXPECT_EQ(T.internVar("x"), X);
  EXPECT_EQ(T.varName(X), "x");
}

TEST(Trace, Figure4Shape) {
  Trace T = figure4Trace();
  EXPECT_EQ(T.size(), 15u);
  TraceStats S = T.stats();
  EXPECT_EQ(S.Threads, 2u);
  EXPECT_EQ(S.Events, 15u);
  EXPECT_EQ(S.ReadsWrites, 6u);
  EXPECT_EQ(S.Branches, 1u);
  EXPECT_EQ(S.Syncs, 8u);
}

TEST(Trace, ThreadProjections) {
  Trace T = figure4Trace();
  ThreadId T1 = T.internThread("t1");
  ThreadId T2 = T.internThread("t2");
  std::vector<EventId> Expect1 = {0, 1, 2, 3, 4, 13, 14};
  std::vector<EventId> Expect2 = {5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_EQ(T.threadEvents(T1), Expect1);
  EXPECT_EQ(T.threadEvents(T2), Expect2);
}

TEST(Trace, VariableAccessLists) {
  Trace T = figure4Trace();
  VarId X = T.internVar("x");
  VarId Y = T.internVar("y");
  VarId Z = T.internVar("z");
  EXPECT_EQ(T.accessesOf(X), (std::vector<EventId>{2, 9}));
  EXPECT_EQ(T.accessesOf(Y), (std::vector<EventId>{3, 7}));
  EXPECT_EQ(T.accessesOf(Z), (std::vector<EventId>{11, 14}));
}

TEST(Trace, LockPairs) {
  Trace T = figure4Trace();
  LockId L = T.internLock("l");
  const auto &Pairs = T.lockPairsOf(L);
  ASSERT_EQ(Pairs.size(), 2u);
  EXPECT_EQ(Pairs[0].AcquireId, 1u);
  EXPECT_EQ(Pairs[0].ReleaseId, 4u);
  EXPECT_EQ(Pairs[1].AcquireId, 6u);
  EXPECT_EQ(Pairs[1].ReleaseId, 8u);
}

TEST(Trace, ForkJoinBeginEndIndex) {
  Trace T = figure4Trace();
  ThreadId T2 = T.internThread("t2");
  EXPECT_EQ(T.forkOf(T2), 0u);
  EXPECT_EQ(T.beginOf(T2), 5u);
  EXPECT_EQ(T.endOf(T2), 12u);
  EXPECT_EQ(T.joinOf(T2), 13u);
  ThreadId T1 = T.internThread("t1");
  EXPECT_EQ(T.forkOf(T1), InvalidEvent);
  EXPECT_EQ(T.joinOf(T1), InvalidEvent);
}

TEST(Trace, HalfOpenLockPair) {
  TraceBuilder B;
  B.acquire("t1", "l");
  B.write("t1", "x", 1);
  Trace T = B.build();
  const auto &Pairs = T.lockPairsOf(T.internLock("l"));
  ASSERT_EQ(Pairs.size(), 1u);
  EXPECT_EQ(Pairs[0].AcquireId, 0u);
  EXPECT_EQ(Pairs[0].ReleaseId, InvalidEvent);
}

TEST(Trace, ReleaseWithoutAcquireInFragment) {
  TraceBuilder B;
  B.write("t1", "x", 1);
  B.release("t1", "l");
  Trace T = B.build();
  const auto &Pairs = T.lockPairsOf(T.internLock("l"));
  ASSERT_EQ(Pairs.size(), 1u);
  EXPECT_EQ(Pairs[0].AcquireId, InvalidEvent);
  EXPECT_EQ(Pairs[0].ReleaseId, 1u);
}

TEST(Trace, ConflictingPredicate) {
  Trace T = figure4Trace();
  // (3,10) in paper numbering = ids (2,9): write x vs read x, two threads.
  EXPECT_TRUE(conflicting(T[2], T[9]));
  EXPECT_TRUE(conflicting(T[9], T[2]) ||
              !T[9].isWrite()); // read-first pair conflicts via B write
  // Same-thread accesses never conflict.
  EXPECT_FALSE(conflicting(T[2], T[3]));
  // Read-read does not conflict.
  TraceBuilder B;
  B.read("a", "v", 0);
  B.read("b", "v", 0);
  Trace RR = B.build();
  EXPECT_FALSE(conflicting(RR[0], RR[1]));
}

TEST(Trace, VolatileAccessesNeverConflict) {
  TraceBuilder B;
  B.write("a", "v", 1, "", /*IsVolatile=*/true);
  B.read("b", "v", 1, "", /*IsVolatile=*/true);
  Trace T = B.build();
  EXPECT_FALSE(conflicting(T[0], T[1]));
}

TEST(Trace, StatsOverSpan) {
  Trace T = figure4Trace();
  TraceStats S = T.stats({0, 5});
  EXPECT_EQ(S.Events, 5u);
  EXPECT_EQ(S.Threads, 1u);
  EXPECT_EQ(S.ReadsWrites, 2u);
}

TEST(Window, SplitsEvenly) {
  Trace T = figure4Trace();
  auto Windows = splitWindows(T, 4);
  ASSERT_EQ(Windows.size(), 4u);
  EXPECT_EQ(Windows[0].Begin, 0u);
  EXPECT_EQ(Windows[0].End, 4u);
  EXPECT_EQ(Windows[3].Begin, 12u);
  EXPECT_EQ(Windows[3].End, 15u);
}

TEST(Window, ZeroMeansWholeTrace) {
  Trace T = figure4Trace();
  auto Windows = splitWindows(T, 0);
  ASSERT_EQ(Windows.size(), 1u);
  EXPECT_EQ(Windows[0].size(), 15u);
}

TEST(Window, EmptyTrace) {
  Trace T;
  T.finalize();
  EXPECT_TRUE(splitWindows(T, 10).empty());
  EXPECT_TRUE(splitWindows(T, 0).empty());
}

TEST(Event, ToStringForms) {
  TraceBuilder B;
  B.write("t1", "x", 5);
  B.acquire("t1", "l");
  B.branch("t1");
  B.fork("t1", "t2");
  Trace T = B.build();
  EXPECT_EQ(toString(T[0]), "write(t0, v0, 5)");
  EXPECT_EQ(toString(T[1]), "acquire(t0, l0)");
  EXPECT_EQ(toString(T[2]), "branch(t0)");
  EXPECT_EQ(toString(T[3]), "fork(t0, t1)");
}

namespace {

/// An empty trace with \p Src's thread, variable, and lock names.
Trace withNamesOf(const Trace &Src) {
  Trace T;
  for (ThreadId I = 0; I < Src.numThreads(); ++I)
    T.internThread(Src.threadName(I));
  for (VarId I = 0; I < Src.numVars(); ++I)
    T.internVar(Src.varName(I));
  for (LockId I = 0; I < Src.numLocks(); ++I)
    T.internLock(Src.lockName(I));
  return T;
}

/// \p Lock's pairs over the first \p N events of \p Src, built the way a
/// one-pass index over that prefix builds them: each release closes its
/// thread's pending acquire (a later acquire replaces a pending one), the
/// acquires still pending are half-open, and pairs sort by first event.
std::vector<LockPair> referencePairs(const Trace &Src, EventId N,
                                     LockId Lock) {
  std::vector<LockPair> Pairs;
  std::unordered_map<ThreadId, EventId> Pending;
  for (EventId Id = 0; Id < N; ++Id) {
    const Event &E = Src[Id];
    if (E.Target != Lock)
      continue;
    if (E.isAcquire()) {
      Pending[E.Tid] = Id;
    } else if (E.isRelease()) {
      LockPair P{InvalidEvent, Id, E.Tid, Lock};
      auto It = Pending.find(E.Tid);
      if (It != Pending.end()) {
        P.AcquireId = It->second;
        Pending.erase(It);
      }
      Pairs.push_back(P);
    }
  }
  for (const auto &[Tid, Acq] : Pending)
    Pairs.push_back({Acq, InvalidEvent, Tid, Lock});
  auto Key = [](const LockPair &P) {
    return P.AcquireId != InvalidEvent ? P.AcquireId : P.ReleaseId;
  };
  std::sort(Pairs.begin(), Pairs.end(),
            [&](const LockPair &A, const LockPair &B) {
              return Key(A) < Key(B);
            });
  return Pairs;
}

} // namespace

TEST(Trace, IncrementalFinalizeEqualsFromScratch) {
  // A streamed trace is finalized after every chunk. Whatever the chunk
  // boundaries, every index must equal finalizing the same prefix at
  // once, including lock pairs left half-open until a later release.
  std::vector<Trace> Sources;
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    Trace Src;
    RunResult Run;
    std::string Error;
    RandomScheduler Sched(Seed * 31 + 1);
    RunLimits Limits;
    Limits.MaxEvents = 2000;
    if (recordTrace(fuzzProgram(Seed), Src, Run, Error, &Sched, Limits))
      Sources.push_back(std::move(Src));
  }
  // Plus a re-acquire before the release (the later acquire pairs), and
  // a release no acquire in view opened.
  Trace Hand;
  for (auto [Kind, Tid] :
       {std::pair{EventKind::Acquire, 0u}, {EventKind::Release, 1u},
        {EventKind::Acquire, 0u}, {EventKind::Acquire, 1u},
        {EventKind::Release, 0u}, {EventKind::Release, 1u},
        {EventKind::Acquire, 0u}}) {
    Event E;
    E.Kind = Kind;
    E.Tid = Tid;
    Hand.append(E);
  }
  Hand.finalize();
  Sources.push_back(std::move(Hand));

  uint64_t HalfOpenSeen = 0, PrefixesChecked = 0;
  for (uint64_t Seed = 0; Seed < Sources.size(); ++Seed) {
    const Trace &Src = Sources[Seed];
    std::mt19937_64 Rng(Seed);
    Trace Grown = withNamesOf(Src);
    for (EventId Next = 0; Next < Src.size();) {
      for (uint64_t Slice = 1 + Rng() % 6; Slice > 0 && Next < Src.size();
           --Slice)
        Grown.append(Src[Next++]);
      Grown.finalize();
      Trace Scratch = withNamesOf(Src);
      for (EventId Id = 0; Id < Next; ++Id)
        Scratch.append(Src[Id]);
      Scratch.finalize();
      ++PrefixesChecked;

      ASSERT_EQ(Grown.numThreads(), Scratch.numThreads());
      for (ThreadId Tid = 0; Tid < Scratch.numThreads(); ++Tid) {
        EXPECT_EQ(Grown.threadEvents(Tid), Scratch.threadEvents(Tid));
        EXPECT_EQ(Grown.forkOf(Tid), Scratch.forkOf(Tid));
        EXPECT_EQ(Grown.joinOf(Tid), Scratch.joinOf(Tid));
        EXPECT_EQ(Grown.beginOf(Tid), Scratch.beginOf(Tid));
        EXPECT_EQ(Grown.endOf(Tid), Scratch.endOf(Tid));
      }
      for (VarId Var = 0; Var < Scratch.numVars(); ++Var)
        EXPECT_EQ(Grown.accessesOf(Var), Scratch.accessesOf(Var));
      for (LockId Lock = 0; Lock < Scratch.numLocks(); ++Lock) {
        std::vector<LockPair> Want = referencePairs(Src, Next, Lock);
        for (const Trace *T : {&Grown, &Scratch}) {
          const std::vector<LockPair> &Got = T->lockPairsOf(Lock);
          ASSERT_EQ(Got.size(), Want.size()) << "seed " << Seed;
          for (size_t I = 0; I < Want.size(); ++I) {
            EXPECT_EQ(Got[I].AcquireId, Want[I].AcquireId);
            EXPECT_EQ(Got[I].ReleaseId, Want[I].ReleaseId);
            EXPECT_EQ(Got[I].Tid, Want[I].Tid);
            EXPECT_EQ(Got[I].Lock, Want[I].Lock);
          }
        }
        for (const LockPair &P : Want)
          HalfOpenSeen += P.ReleaseId == InvalidEvent;
      }
      for (EventId Id = 0; Id < Next; ++Id)
        if (Src[Id].Aux != 0)
          EXPECT_EQ(Grown.notifyOfMatch(Src[Id].Aux),
                    Scratch.notifyOfMatch(Src[Id].Aux));
    }
  }
  EXPECT_GT(PrefixesChecked, 100u);
  EXPECT_GT(HalfOpenSeen, 0u) << "no prefix cut a critical section";
}
