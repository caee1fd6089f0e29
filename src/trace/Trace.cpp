//===- trace/Trace.cpp - Execution traces ---------------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstddef>

using namespace rvp;

const char *rvp::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::Begin:
    return "begin";
  case EventKind::End:
    return "end";
  case EventKind::Read:
    return "read";
  case EventKind::Write:
    return "write";
  case EventKind::Acquire:
    return "acquire";
  case EventKind::Release:
    return "release";
  case EventKind::Fork:
    return "fork";
  case EventKind::Join:
    return "join";
  case EventKind::Branch:
    return "branch";
  case EventKind::Wait:
    return "wait";
  case EventKind::Notify:
    return "notify";
  }
  RVP_UNREACHABLE("unknown event kind");
}

std::string rvp::toString(const Event &E) {
  switch (E.Kind) {
  case EventKind::Read:
  case EventKind::Write:
    return formatString("%s(t%u, v%u, %lld)%s", eventKindName(E.Kind), E.Tid,
                        E.Target, static_cast<long long>(E.Data),
                        E.Volatile ? " volatile" : "");
  case EventKind::Acquire:
  case EventKind::Release:
  case EventKind::Notify:
    return formatString("%s(t%u, l%u)", eventKindName(E.Kind), E.Tid,
                        E.Target);
  case EventKind::Fork:
  case EventKind::Join:
    return formatString("%s(t%u, t%u)", eventKindName(E.Kind), E.Tid,
                        E.Target);
  case EventKind::Begin:
  case EventKind::End:
  case EventKind::Branch:
  case EventKind::Wait:
    return formatString("%s(t%u)", eventKindName(E.Kind), E.Tid);
  }
  RVP_UNREACHABLE("unknown event kind");
}

uint32_t Trace::internName(const std::string &Name,
                           std::vector<std::string> &Names,
                           std::unordered_map<std::string, uint32_t> &Map) {
  auto It = Map.find(Name);
  if (It != Map.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.push_back(Name);
  Map.emplace(Name, Id);
  return Id;
}

ThreadId Trace::internThread(const std::string &Name) {
  return internName(Name, ThreadNames, ThreadMap);
}
VarId Trace::internVar(const std::string &Name) {
  return internName(Name, VarNames, VarMap);
}
LockId Trace::internLock(const std::string &Name) {
  return internName(Name, LockNames, LockMap);
}
LocId Trace::internLoc(const std::string &Name) {
  return internName(Name, LocNames, LocMap);
}

void Trace::setInitialValue(VarId Var, Value V) {
  if (InitValues.size() <= Var)
    InitValues.resize(Var + 1, 0);
  InitValues[Var] = V;
}

EventId Trace::append(const Event &E) {
  assert(E.Kind != EventKind::Wait &&
         "traces store wait() in lowered release/acquire form");
  Events.push_back(E);
  return static_cast<EventId>(Events.size() - 1);
}

Trace::NameMark Trace::nameMark() const {
  return {numThreads(), numVars(), numLocks(),
          static_cast<uint32_t>(LocNames.size())};
}

/// Forgets the names interned after the first \p Size.
static void truncateNames(std::vector<std::string> &Names,
                          std::unordered_map<std::string, uint32_t> &Map,
                          uint32_t Size) {
  while (Names.size() > Size) {
    Map.erase(Names.back());
    Names.pop_back();
  }
}

void Trace::dropLast(const NameMark &Mark) {
  assert(Events.size() > Indexed && "the event is already indexed");
  Events.pop_back();
  truncateNames(ThreadNames, ThreadMap, Mark.Threads);
  truncateNames(VarNames, VarMap, Mark.Vars);
  truncateNames(LockNames, LockMap, Mark.Locks);
  truncateNames(LocNames, LocMap, Mark.Locs);
}

/// Extends \p Names with synthesized entries so ids up to \p Count are
/// printable even when the trace was built without interned names.
static void padNames(std::vector<std::string> &Names, uint32_t Count,
                     const char *Prefix) {
  while (Names.size() < Count)
    Names.push_back(formatString("%s%zu", Prefix, Names.size()));
}

/// The OpenPairs key of \p Lock held by \p Tid.
static uint64_t openKey(LockId Lock, ThreadId Tid) {
  return static_cast<uint64_t>(Lock) << 32 | Tid;
}

void Trace::finalize() {
  uint32_t MaxThread = numThreads();
  uint32_t MaxVar = numVars();
  uint32_t MaxLock = numLocks();
  for (EventId Id = Indexed; Id < Events.size(); ++Id) {
    const Event &E = Events[Id];
    MaxThread = std::max(MaxThread, E.Tid + 1);
    if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
      MaxThread = std::max(MaxThread, E.Target + 1);
    if (E.isAccess())
      MaxVar = std::max(MaxVar, E.Target + 1);
    if (E.isAcquire() || E.isRelease() || E.Kind == EventKind::Notify)
      MaxLock = std::max(MaxLock, E.Target + 1);
  }
  padNames(ThreadNames, MaxThread, "t");
  padNames(VarNames, MaxVar, "v");
  padNames(LockNames, MaxLock, "l");

  ByThread.resize(MaxThread);
  ByVar.resize(MaxVar);
  ByLock.resize(MaxLock);
  ForkEvent.resize(MaxThread, InvalidEvent);
  BeginEvent.resize(MaxThread, InvalidEvent);
  EndEvent.resize(MaxThread, InvalidEvent);
  JoinEvent.resize(MaxThread, InvalidEvent);

  // Every lock pair is appended when its first event (the acquire, or an
  // unmatched release) is indexed, so each lock's pairs stay sorted by
  // that position; an acquire still held is a half-open pair until its
  // release fills it in.
  for (EventId Id = Indexed; Id < Events.size(); ++Id) {
    const Event &E = Events[Id];
    ByThread[E.Tid].push_back(Id);
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      ByVar[E.Target].push_back(Id);
      break;
    case EventKind::Acquire: {
      std::vector<LockPair> &Pairs = ByLock[E.Target];
      auto [It, Fresh] =
          OpenPairs.try_emplace(openKey(E.Target, E.Tid), Pairs.size());
      if (!Fresh) {
        // A second acquire before the release supersedes the first,
        // which then pairs with nothing.
        size_t Stale = It->second;
        Pairs.erase(Pairs.begin() + static_cast<std::ptrdiff_t>(Stale));
        for (auto &[Key, Index] : OpenPairs)
          if (Key >> 32 == E.Target && Index > Stale)
            --Index;
        It->second = Pairs.size();
      }
      Pairs.push_back({Id, InvalidEvent, E.Tid, E.Target});
      break;
    }
    case EventKind::Release: {
      std::vector<LockPair> &Pairs = ByLock[E.Target];
      auto It = OpenPairs.find(openKey(E.Target, E.Tid));
      if (It == OpenPairs.end()) {
        Pairs.push_back({InvalidEvent, Id, E.Tid, E.Target});
      } else {
        Pairs[It->second].ReleaseId = Id;
        OpenPairs.erase(It);
      }
      break;
    }
    case EventKind::Fork:
      ForkEvent[E.Target] = Id;
      break;
    case EventKind::Join:
      JoinEvent[E.Target] = Id;
      break;
    case EventKind::Begin:
      BeginEvent[E.Tid] = Id;
      break;
    case EventKind::End:
      EndEvent[E.Tid] = Id;
      break;
    case EventKind::Notify:
      if (E.Aux != 0)
        NotifyByMatch[E.Aux] = Id;
      break;
    case EventKind::Branch:
      break;
    case EventKind::Wait:
      RVP_UNREACHABLE("wait events are lowered before recording");
    }
  }
  Indexed = static_cast<EventId>(Events.size());
}

EventId Trace::notifyOfMatch(uint32_t Aux) const {
  assert(Indexed == Events.size() && "finalize() the trace first");
  auto It = NotifyByMatch.find(Aux);
  return It == NotifyByMatch.end() ? InvalidEvent : It->second;
}

TraceStats Trace::stats(Span S) const {
  TraceStats Stats;
  std::vector<bool> SeenThread(ByThread.empty() ? 64 : ByThread.size(),
                               false);
  for (EventId Id = S.Begin; Id < S.End && Id < Events.size(); ++Id) {
    const Event &E = Events[Id];
    ++Stats.Events;
    if (E.Tid < SeenThread.size() && !SeenThread[E.Tid]) {
      SeenThread[E.Tid] = true;
      ++Stats.Threads;
    }
    if (E.isAccess())
      ++Stats.ReadsWrites;
    else if (E.Kind == EventKind::Branch)
      ++Stats.Branches;
    else
      ++Stats.Syncs;
  }
  return Stats;
}
