//===- trace/Consistency.h - Sequential-consistency checking ----*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the trace consistency requirements of Section 2.2:
///
///  * Read consistency: every read returns the value of the most recent
///    write to the same variable (variables start at 0).
///  * Lock mutual exclusion: per lock, acquires and releases alternate and
///    each pair shares a thread.
///  * Must happen-before: begin is the first event of its thread and is
///    preceded by its fork; end is the last; join follows the joined
///    thread's end; a matched notify falls between the lowered
///    release/acquire of its wait.
///
/// Two modes: Strict validates a complete execution; Fragment tolerates
/// truncation artifacts (missing begin/fork, locks held at trace end, a
/// join without the end in view), as produced by windowing or by witness
/// prefixes, which Theorem 1 permits.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_TRACE_CONSISTENCY_H
#define RVP_TRACE_CONSISTENCY_H

#include "trace/Trace.h"

#include <string>
#include <unordered_map>
#include <unordered_set>

namespace rvp {

enum class ConsistencyMode {
  Strict,   ///< Complete executions recorded from start.
  Fragment, ///< Windows and reordered prefixes (incomplete traces).
};

/// Result of a consistency check; Ok is true iff the trace satisfies all
/// serial specifications. On failure, Offender identifies the first
/// violating event and Message explains the violation.
struct ConsistencyResult {
  bool Ok = true;
  EventId Offender = InvalidEvent;
  std::string Message;

  static ConsistencyResult failure(EventId Id, std::string Msg) {
    return {false, Id, std::move(Msg)};
  }
};

/// The forward checker behind checkConsistency, fed one event at a time.
/// A rejected event leaves the checker as if it had never been fed, so
/// feeding a trace and skipping its offenders checks the trace with those
/// events deleted.
class ConsistencyChecker {
public:
  explicit ConsistencyChecker(ConsistencyMode Mode) : Mode(Mode) {}

  /// Checks event \p Id of \p T against the events fed before it.
  ConsistencyResult step(const Trace &T, EventId Id);
  /// End of the sequence (Strict: no lock may still be held).
  ConsistencyResult finish(const Trace &T) const;

private:
  struct ThreadState {
    bool Started = false;
    bool Ended = false;
    bool Forked = false;
  };
  struct LockState {
    bool Held = false;
    ThreadId Holder = 0;
  };

  ConsistencyMode Mode;
  std::unordered_map<ThreadId, ThreadState> Threads;
  std::unordered_map<LockId, LockState> Locks;
  std::unordered_map<VarId, Value> LastValue;
  std::unordered_set<uint32_t> PendingWaits;
  std::unordered_set<uint32_t> SeenNotify;
};

/// Checks a sequence of events given by ids \p Order into \p T. The
/// sequence need not be a permutation of the whole trace (prefixes and
/// windows are sequences too).
ConsistencyResult checkConsistency(const Trace &T,
                                   const std::vector<EventId> &Order,
                                   ConsistencyMode Mode);

/// Checks the trace in its recorded order.
ConsistencyResult checkConsistency(const Trace &T, ConsistencyMode Mode);

/// Read consistency only, ignoring read values for events in
/// \p DataAbstract (their values are allowed to differ, as in data-abstract
/// equivalence, Section 2.3). Pass an empty set to check all reads.
ConsistencyResult
checkReadConsistency(const Trace &T, const std::vector<EventId> &Order,
                     const std::vector<bool> &DataAbstract);

} // namespace rvp

#endif // RVP_TRACE_CONSISTENCY_H
