//===- detect/WindowDriver.h - One driver for every property ---*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One window driver for every property. Section 2.5 of the paper makes
/// atomicity violations and deadlocks the race model with another query
/// formula, so the race, atomicity, and deadlock detectors share this
/// driver and differ only in a small WindowPolicy.
///
/// The driver is push-style: push() analyzes the next window and finish()
/// closes the run. A window carries forward only the running variable
/// values and the reported signatures (Section 4), so a batch run pushes
/// every window of the whole trace and a streamed session pushes each
/// window as its events arrive, through the same code. The driver owns
/// everything the properties have in common:
///
///  * the running variable values carried from window to window, grown
///    as the trace names new variables;
///  * one COP loop for every `--jobs` value. Phase A (the policy's
///    enumerate) pre-filters; phase B pre-solves the survivors on the
///    thread pool when there is one; phase C collects in candidate order
///    and solves on demand every candidate phase B did not touch. A
///    candidate whose signature already has a finding is never solved on
///    demand, so `--jobs=1` does no speculative work;
///  * a SolveHost per window (per worker with a pool) and its resilience
///    tallies, the signature-keyed unknown section, the unsliced witness
///    re-derivation, and the telemetry flush at finish();
///  * the checkpoint payload codec (docs/ROBUSTNESS.md), used by
///    `--checkpoint` and the daemon's session checkpoints. A policy adds
///    only its finding lines.
///
/// A policy enumerates a window's candidates with their signature and
/// pre-filter verdict, encodes one candidate's query, checks its witness,
/// builds its finding, and renders its findings.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_WINDOWDRIVER_H
#define RVP_DETECT_WINDOWDRIVER_H

#include "detect/Closure.h"
#include "detect/Detect.h"
#include "detect/RaceEncoder.h"
#include "detect/Report.h"
#include "smt/Solver.h"
#include "support/Timer.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace rvp {

class MetricsRegistry;
class ThreadPool;

/// One candidate of a window, as phase A enumerates it.
struct Candidate {
  /// Signature-pruning key (Section 4): once a candidate with this key is
  /// reported, later ones are skipped.
  uint64_t Sig = 0;
  /// The defining pair, shown when the candidate lands in the unknown
  /// section.
  EventId First = InvalidEvent;
  EventId Second = InvalidEvent;
  /// The pre-filter verdict, fixed at window start.
  enum class Verdict : uint8_t {
    Solve,  ///< encode and decide
    Early,  ///< rejected ahead of the signature check
    Late,   ///< rejected after the signature check
    Proven, ///< a cheaper tier proved the query satisfiable: no decide;
            ///< with witnesses on, the witness solve confirms it
  } Filter = Verdict::Solve;
};

/// What the solve path produced for one candidate.
struct CandidateOutcome {
  /// The solve path ran (in phase B or on demand).
  bool Done = false;
  /// A solver decision ran; false for a Proven candidate.
  bool Decided = false;
  SatResult Sat = SatResult::Unknown;
  /// Escalation attempts the host spent on the decision.
  uint32_t Attempts = 1;
  double EncodeSeconds = 0;
  double SolveSeconds = 0;
  double WitnessSeconds = 0;
  uint64_t MemDeltaBytes = 0;
  /// Formula sizes, measured only when telemetry is enabled.
  uint64_t FormulaNodes = 0;
  uint64_t DifferenceAtoms = 0;
  uint64_t OrderVars = 0;
  /// Sliced-encode cone size (0 unsliced).
  uint64_t ConeEvents = 0;
  std::vector<EventId> Witness;
  bool WitnessValid = false;
};

/// The per-window analysis state a policy builds in enumerate() and the
/// solve path reads (concurrently, with a pool).
struct WindowScope {
  Span Window;
  std::optional<EventClosure> Mhb;
  /// The decision-path encoder; unset when no candidate is solved.
  std::optional<RaceEncoder> Encoder;
};

/// Everything the driver accumulates across windows, i.e. everything the
/// checkpoint codec stores besides the policy's findings.
struct RunState {
  DetectionStats Stats;
  /// Plain tallies flushed into the registry once per run.
  uint64_t QcHits = 0;
  uint64_t QcMisses = 0;
  uint64_t SigPruned = 0;
  /// Pre-solved candidates discarded because an earlier candidate of the
  /// same window reported their signature.
  uint64_t SpeculativeSolves = 0;
  /// Backend factory failures the hosts absorbed by falling back to idl.
  uint64_t BackendFallbacks = 0;
  /// Variable values at the next window's entry.
  std::vector<Value> Values;
  /// Signatures with a finding.
  std::unordered_set<uint64_t> Seen;
  /// Race only: distinct signatures passing the quick check.
  std::unordered_set<uint64_t> QcSeen;
  std::vector<UnknownReport> Unknowns;
  /// The signature of each entry of Unknowns.
  std::vector<uint64_t> UnknownSigs;
  /// Windows a --checkpoint snapshot covered (not serialized).
  uint64_t ResumedWindows = 0;

  /// Parks an undecided candidate in the unknown section, one entry per
  /// signature (first candidate seen), never in the findings, so
  /// degradation keeps the findings sound.
  void recordUnknown(const Trace &T, const Candidate &C, uint32_t Attempts);
  /// Marks \p Sig reported; a finding supersedes its maybe-entry.
  void found(uint64_t Sig);
};

/// What one property adds to the driver. Candidate indices refer to the
/// vector the last enumerate() call filled.
class WindowPolicy {
public:
  /// \p Name tags the checkpoint payload; \p Phase names the top phase.
  WindowPolicy(const Trace &T, const DetectorOptions &Options,
               const char *Name, const char *Phase)
      : T(T), Options(Options), Name(Name), Phase(Phase) {}
  virtual ~WindowPolicy() = default;
  WindowPolicy(const WindowPolicy &) = delete;
  WindowPolicy &operator=(const WindowPolicy &) = delete;

  /// False when no window is ever solved: no pool, Stats.Jobs stays 1.
  virtual bool solves() const { return true; }
  /// Whether satisfiable candidates get witnesses (with CollectWitnesses).
  virtual bool witnesses() const { return true; }
  /// Whether a candidate's First event leads its witness: it sorts first
  /// among equal model positions, and takes Second's position when the
  /// encoder substitutes `O_First := O_Second` (the race query).
  virtual bool leadsWitness() const { return false; }

  /// Phase A: builds W.Mhb and W.Encoder as needed and fills the empty
  /// \p Out with the window's candidates in report order. Returns the window's candidate
  /// count for Stats.Cops, which may exceed \p Out when the policy decides
  /// some itself.
  virtual size_t enumerate(WindowScope &W, std::vector<Candidate> &Out) = 0;
  /// Candidate \p I's query through \p E. Thread-safe.
  virtual NodeRef encode(const RaceEncoder &E, size_t I, FormulaBuilder &FB,
                         EncodeStats *Stats) const = 0;
  /// Whether \p Witness, a reordering of the window, manifests candidate
  /// \p I. Thread-safe.
  virtual bool witnessValid(const WindowScope &W, size_t I,
                            const std::vector<EventId> &Witness) const = 0;

  /// Phase C, in candidate order: a pre-filtered candidate...
  virtual void filtered(size_t) {}
  /// ...one whose signature was already reported...
  virtual void signaturePruned(size_t) {}
  /// ...and one the solve path ran for. A satisfiable one becomes a
  /// finding here; the driver has already marked its signature.
  virtual void decided(size_t I, CandidateOutcome &R) = 0;
  /// After the window's phase C.
  virtual void windowDone(const WindowScope &, size_t, double) {}
  /// Property-specific counters, next to the driver's.
  virtual void flushTelemetry(MetricsRegistry &) const {}

  /// Findings so far, in report order.
  virtual size_t numFindings() const = 0;
  /// Finding \p I's report line (renderRaceLine and its siblings).
  virtual std::string renderFinding(size_t I,
                                    const ReportRenderOptions &R) const = 0;
  /// The full report of the run, as `rvpredict detect` prints it.
  virtual std::string renderReport(const ReportRenderOptions &R) const = 0;

  /// Appends one line per finding to the checkpoint payload.
  virtual void encodeFindings(std::string &Out) const = 0;
  /// Replaces the findings with \p Lines (split into fields). All or
  /// nothing: false, leaving the findings untouched, on any line that is
  /// malformed or not this property's.
  virtual bool
  restoreFindings(const std::vector<std::vector<std::string_view>> &Lines) = 0;

  const Trace &T;
  /// The options of the window being analyzed: the run's, or their
  /// degraded form while push() sheds a window to the WCP tier.
  DetectorOptions Options;
  const char *const Name;
  const char *const Phase;
  RunState State;
};

/// Drives one policy over a trace, one window at a time. The trace may
/// grow between pushes (a streamed session appends to it); each pushed
/// window must be finalized and must follow the previous one.
class WindowDriver {
public:
  explicit WindowDriver(WindowPolicy &Policy);
  ~WindowDriver();

  /// Analyzes \p Window. \p Degrade sheds it to the WCP vector-clock tier
  /// without witnesses or tier cross-checks (load shedding; only the race
  /// property has such a tier).
  void push(Span Window, bool Degrade = false);
  /// Ends the run: sets Stats.UnknownCops and Stats.Seconds and flushes
  /// the run's telemetry into the registry, once.
  void finish();

  /// Everything accumulated so far, as a checkpoint payload.
  std::string serialize() const;
  /// Inverse of serialize; call before the first push(). All or nothing:
  /// false, leaving the state untouched, on a malformed payload, one of
  /// another property, or one that does not fit the trace.
  bool restore(std::string_view Payload);

private:
  void decideAll(const WindowScope &W, const std::vector<Candidate> &Cands);

  const Trace &T;
  WindowPolicy &P;
  RunState &S;
  /// Worker pool for phase B; null when Jobs <= 1 or the policy never
  /// solves.
  std::unique_ptr<ThreadPool> Pool;
  /// Runs from construction to finish(), for Stats.Seconds.
  Timer Clock;
};

/// Pushes every window of \p Policy's trace through one driver, then
/// finishes; the run's results are left in Policy.State and the policy's
/// findings. With --checkpoint it resumes after the last saved window and
/// saves after each one.
void runWindows(WindowPolicy &Policy);

/// The three properties' policies, for a driver fed window by window.
std::unique_ptr<WindowPolicy> makeRacePolicy(const Trace &T, Technique Tech,
                                             const DetectorOptions &Options);
std::unique_ptr<WindowPolicy>
makeAtomicityPolicy(const Trace &T, const DetectorOptions &Options);
std::unique_ptr<WindowPolicy>
makeDeadlockPolicy(const Trace &T, const DetectorOptions &Options);

/// Finding-line helpers for the checkpoint codec.
/// An event id field, range-checked against \p T.
bool parseEventField(const Trace &T, std::string_view S, EventId &Out);
/// Appends the " <valid> <witness...>" tail and the newline.
void appendWitnessFields(std::string &Out, bool Valid,
                         const std::vector<EventId> &Witness);
/// Parses the tail appendWitnessFields wrote, starting at field \p From.
bool parseWitnessFields(const Trace &T,
                        const std::vector<std::string_view> &F, size_t From,
                        bool &Valid, std::vector<EventId> &Witness);

} // namespace rvp

#endif // RVP_DETECT_WINDOWDRIVER_H
