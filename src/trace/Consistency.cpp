//===- trace/Consistency.cpp - Sequential-consistency checking ------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Consistency.h"

#include "support/StringUtils.h"

using namespace rvp;

namespace {

ConsistencyResult fail(EventId Id, std::string Msg) {
  return ConsistencyResult::failure(Id, std::move(Msg));
}

} // namespace

ConsistencyResult ConsistencyChecker::step(const Trace &T, EventId Id) {
  const Event &E = T[Id];
  // Per-thread bookkeeping shared by several rules. Every rule checks
  // before it updates, so a rejected event changes nothing.
  ThreadState &TS = Threads[E.Tid];
  if (TS.Ended)
    return fail(Id, "event after end of thread " + T.threadName(E.Tid));

  switch (E.Kind) {
  case EventKind::Read: {
    auto It = LastValue.find(E.Target);
    Value Expected =
        It == LastValue.end() ? T.initialValueOf(E.Target) : It->second;
    if (E.Data != Expected)
      return fail(Id, formatString(
                          "read of %s returned %lld but last write was %lld",
                          T.varName(E.Target).c_str(),
                          static_cast<long long>(E.Data),
                          static_cast<long long>(Expected)));
    break;
  }
  case EventKind::Write:
    LastValue[E.Target] = E.Data;
    break;
  case EventKind::Acquire: {
    LockState &LS = Locks[E.Target];
    if (LS.Held)
      return fail(Id, formatString("lock %s acquired while held by %s",
                                   T.lockName(E.Target).c_str(),
                                   T.threadName(LS.Holder).c_str()));
    // A wait() resume must be preceded by its matched notify.
    if (E.Aux != 0 && Mode == ConsistencyMode::Strict &&
        !SeenNotify.count(E.Aux))
      return fail(Id, "wait resumed before its matching notify");
    LS.Held = true;
    LS.Holder = E.Tid;
    break;
  }
  case EventKind::Release: {
    LockState &LS = Locks[E.Target];
    if (!LS.Held) {
      // A fragment may start inside a critical section.
      if (Mode == ConsistencyMode::Strict)
        return fail(Id, formatString("release of %s without acquire",
                                     T.lockName(E.Target).c_str()));
    } else if (LS.Holder != E.Tid) {
      return fail(Id, formatString("lock %s released by non-holder",
                                   T.lockName(E.Target).c_str()));
    }
    LS.Held = false;
    if (E.Aux != 0)
      PendingWaits.insert(E.Aux);
    break;
  }
  case EventKind::Notify:
    if (E.Aux != 0) {
      if (Mode == ConsistencyMode::Strict && !PendingWaits.count(E.Aux))
        return fail(Id, "notify before its matching wait suspended");
      SeenNotify.insert(E.Aux);
    }
    break;
  case EventKind::Fork: {
    ThreadState &Child = Threads[E.Target];
    if (Child.Forked)
      return fail(Id, formatString("thread %s forked twice",
                                   T.threadName(E.Target).c_str()));
    if (Child.Started)
      return fail(Id, formatString("thread %s forked after it started",
                                   T.threadName(E.Target).c_str()));
    Child.Forked = true;
    break;
  }
  case EventKind::Begin:
    if (TS.Started)
      return fail(Id, "begin is not the first event of its thread");
    if (Mode == ConsistencyMode::Strict && E.Tid != RootThread &&
        !TS.Forked)
      return fail(Id, formatString("thread %s begins before it is forked",
                                   T.threadName(E.Tid).c_str()));
    break;
  case EventKind::End:
    TS.Ended = true;
    break;
  case EventKind::Join: {
    if (Mode == ConsistencyMode::Strict && !Threads[E.Target].Ended)
      return fail(Id, formatString("join on %s before its end",
                                   T.threadName(E.Target).c_str()));
    break;
  }
  case EventKind::Branch:
    break;
  case EventKind::Wait:
    return fail(Id, "unlowered wait event in trace");
  }
  TS.Started = true;
  return {};
}

ConsistencyResult ConsistencyChecker::finish(const Trace &T) const {
  if (Mode == ConsistencyMode::Fragment)
    return {};
  for (const auto &[Lock, LS] : Locks) {
    if (LS.Held)
      return fail(InvalidEvent, formatString("lock %s still held at end",
                                             T.lockName(Lock).c_str()));
  }
  return {};
}

ConsistencyResult rvp::checkConsistency(const Trace &T,
                                        const std::vector<EventId> &Order,
                                        ConsistencyMode Mode) {
  ConsistencyChecker Checker(Mode);
  for (EventId Id : Order) {
    ConsistencyResult R = Checker.step(T, Id);
    if (!R.Ok)
      return R;
  }
  return Checker.finish(T);
}

ConsistencyResult rvp::checkConsistency(const Trace &T,
                                        ConsistencyMode Mode) {
  std::vector<EventId> Order(T.size());
  for (EventId Id = 0; Id < T.size(); ++Id)
    Order[Id] = Id;
  return checkConsistency(T, Order, Mode);
}

ConsistencyResult
rvp::checkReadConsistency(const Trace &T, const std::vector<EventId> &Order,
                          const std::vector<bool> &DataAbstract) {
  std::unordered_map<VarId, Value> LastValue;
  for (EventId Id : Order) {
    const Event &E = T[Id];
    if (E.isWrite()) {
      LastValue[E.Target] = E.Data;
      continue;
    }
    if (!E.isRead())
      continue;
    if (Id < DataAbstract.size() && DataAbstract[Id])
      continue;
    auto It = LastValue.find(E.Target);
    Value Expected =
        It == LastValue.end() ? T.initialValueOf(E.Target) : It->second;
    if (E.Data != Expected)
      return ConsistencyResult::failure(
          Id, formatString("read of %s returned %lld but last write was %lld",
                           T.varName(E.Target).c_str(),
                           static_cast<long long>(E.Data),
                           static_cast<long long>(Expected)));
  }
  return {};
}
