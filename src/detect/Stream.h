//===- detect/Stream.h - Incremental window-at-a-time detection -*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// StreamDetector runs the window driver over a trace that arrives
// incrementally: the analysis core of rvpredictd. A session keeps one
// TraceParser, which parses each line once, when its newline arrives, and
// appends the event to the session's trace, plus one live policy and
// WindowDriver over that trace. Each step pushes the next full window;
// the driver carries the running variable values and the reported
// signatures from window to window, exactly as in a batch run, so the
// cumulative result after the last step is the batch result and finish()
// renders it with the shared Report renderers: the property the
// ServerGolden gate checks byte for byte.
//
// All per-session state lives in one DetectorRun; reset() replaces it
// wholesale, so a recycled detector inherits no interned strings, stats,
// or clock state from the previous session. Telemetry flushes to the
// process-wide registry exactly once per session, at finish().
//
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_STREAM_H
#define RVP_DETECT_STREAM_H

#include "detect/Report.h"
#include "trace/TraceIO.h"

#include <memory>
#include <string>
#include <vector>

namespace rvp {

class WindowDriver;
class WindowPolicy;

enum class StreamProperty : uint8_t { Race, Atomicity, Deadlock };

/// Maps "race"/"atomicity"/"deadlock" (the daemon's HELLO `property` key);
/// returns false on anything else.
bool parseStreamProperty(std::string_view Name, StreamProperty &Out);

struct StreamOptions {
  StreamProperty Property = StreamProperty::Race;
  Technique Tech = Technique::Maximal;
  /// Driver options for the session (CheckpointDir is not used: the
  /// daemon checkpoints state() itself).
  DetectorOptions Detect;
  TraceParseOptions Parse;
  ReportRenderOptions Render;
};

/// What one analyzed window produced (the daemon's REPORT frame body).
struct StreamStep {
  uint64_t Window = 0;   ///< index of the window just analyzed
  bool Degraded = false; ///< answered by the WCP tier under load shedding
  /// Rendered lines for findings and unknowns new in this window. Deltas
  /// are additive-only (a later window can retire an unknown by deciding
  /// its signature; only the summary reflects that), so the cumulative
  /// summary — not the concatenation of deltas — is authoritative.
  std::string Delta;
  size_t NewFindings = 0;
  size_t NewUnknowns = 0;
};

/// All state one streaming session accumulates. Sessions never share one
/// of these, and reset() swaps in a fresh one, which is what guarantees
/// session isolation (no interned-string, value, or signature bleed).
struct DetectorRun {
  explicit DetectorRun(const StreamOptions &Opts);
  ~DetectorRun();

  /// Owns the session's trace; the partial last line waits inside it.
  TraceParser Parser;
  /// One live policy and driver over Parser's trace.
  std::unique_ptr<WindowPolicy> Policy;
  std::unique_ptr<WindowDriver> Driver;
  /// A recovered payload not yet installed in Driver (see restore()).
  std::string Restore;
  bool Finished = false;
  uint64_t WindowsDone = 0;
  uint64_t DegradedWindows = 0;
  /// Findings and unknowns this session has reported in step deltas.
  size_t Findings = 0;
  size_t Unknowns = 0;
  /// The report of finish(), cached so a second finish() cannot
  /// double-flush telemetry.
  std::string SummaryText;
};

class StreamDetector {
public:
  explicit StreamDetector(StreamOptions Opts);
  ~StreamDetector();

  /// Appends raw trace text; chunks may end mid-line. Every line the
  /// chunk completes is parsed here; a parse error surfaces from
  /// checkParse() and the next step()/finish().
  void feed(std::string_view Text);

  /// True when at least one full unanalyzed window is buffered.
  bool windowReady();

  /// Analyzes the next pending window (one full window; partial tails
  /// wait for finish()). \p Degrade answers this window from the WCP
  /// vector-clock tier instead of the solver pipeline — race property
  /// only; atomicity/deadlock steps ignore it and run normally. Returns
  /// false with \p Error set on a parse error or a restored payload that
  /// does not fit the trace, false with \p Error empty when no full
  /// window is pending.
  bool step(StreamStep &Out, bool Degrade, std::string &Error);

  /// End of input: analyzes any residual partial window (each step
  /// appended to \p Steps when non-null), flushes telemetry, and renders
  /// the cumulative report — byte-identical to `rvpredict detect` on the
  /// full trace when no window was degraded. Idempotent per session.
  bool finish(std::string &Summary, std::string &Error,
              std::vector<StreamStep> *Steps = nullptr);

  /// Discards every trace of the previous session (recycled detectors
  /// must behave like new ones).
  void reset();

  /// Crash recovery: installs a state payload (CheckpointStore format,
  /// sans header) covering the first \p WindowsDone windows. Analysis
  /// stays suspended until the replayed trace covers those windows again,
  /// then resumes after them; a replay that ends first starts over from
  /// scratch. Call before the first step().
  void restore(std::string Payload, uint64_t WindowsDone);

  /// Full windows buffered but not yet analyzed (the backpressure and
  /// load-shedding signal). 0 after a parse error.
  uint64_t pendingWindows();

  /// Whether every line fed so far parsed, so the daemon can fail a
  /// session on the first bad DATA chunk.
  bool checkParse(std::string &Error);

  const DetectorRun &run() const { return *Run; }
  /// Serialized cumulative state (checkpoint payload format) — what the
  /// daemon persists for crash recovery.
  std::string state() const;

private:
  /// Windows the batch run would analyze for the trace parsed so far.
  uint64_t totalWindows(bool Final) const;
  /// Installs a pending restore() payload into the driver.
  bool applyRestore(std::string &Error);

  StreamOptions Opts;
  std::unique_ptr<DetectorRun> Run;
};

} // namespace rvp

#endif // RVP_DETECT_STREAM_H
