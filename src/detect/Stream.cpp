//===- detect/Stream.cpp - Incremental window-at-a-time detection ---------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Stream.h"

#include "detect/WindowDriver.h"

#include <algorithm>

using namespace rvp;

bool rvp::parseStreamProperty(std::string_view Name, StreamProperty &Out) {
  if (Name == "race")
    Out = StreamProperty::Race;
  else if (Name == "atomicity")
    Out = StreamProperty::Atomicity;
  else if (Name == "deadlock")
    Out = StreamProperty::Deadlock;
  else
    return false;
  return true;
}

DetectorRun::DetectorRun(const StreamOptions &Opts) : Parser(Opts.Parse) {
  const Trace &T = Parser.trace();
  switch (Opts.Property) {
  case StreamProperty::Race:
    Policy = makeRacePolicy(T, Opts.Tech, Opts.Detect);
    break;
  case StreamProperty::Atomicity:
    Policy = makeAtomicityPolicy(T, Opts.Detect);
    break;
  case StreamProperty::Deadlock:
    Policy = makeDeadlockPolicy(T, Opts.Detect);
    break;
  }
  Driver = std::make_unique<WindowDriver>(*Policy);
}

DetectorRun::~DetectorRun() = default;

StreamDetector::StreamDetector(StreamOptions Options)
    : Opts(std::move(Options)), Run(std::make_unique<DetectorRun>(Opts)) {}

StreamDetector::~StreamDetector() = default;

void StreamDetector::reset() {
  Run.reset(); // the old driver goes before the new one is built
  Run = std::make_unique<DetectorRun>(Opts);
}

void StreamDetector::feed(std::string_view Text) {
  if (!Run->Finished)
    Run->Parser.feed(Text);
}

bool StreamDetector::checkParse(std::string &Error) {
  if (Run->Parser.error().empty())
    return true;
  Error = Run->Parser.error();
  return false;
}

uint64_t StreamDetector::totalWindows(bool Final) const {
  uint64_t Size = Run->Parser.trace().size();
  uint32_t WS = Opts.Detect.WindowSize;
  if (WS == 0) // one window over the whole trace: only FIN closes it
    return Final && Size > 0 ? 1 : 0;
  if (Final)
    return (Size + WS - 1) / WS;
  return Size / WS; // full windows only; the tail waits for FIN
}

uint64_t StreamDetector::pendingWindows() {
  if (!Run->Parser.error().empty())
    return 0;
  uint64_t Total = totalWindows(Run->Finished);
  return Total > Run->WindowsDone ? Total - Run->WindowsDone : 0;
}

bool StreamDetector::windowReady() {
  return !Run->Finished && pendingWindows() > 0;
}

void StreamDetector::restore(std::string Payload, uint64_t WindowsDone) {
  Run->Restore = std::move(Payload);
  Run->WindowsDone = WindowsDone;
}

bool StreamDetector::applyRestore(std::string &Error) {
  if (Run->Restore.empty())
    return true;
  std::string Payload = std::move(Run->Restore);
  Run->Restore.clear();
  if (Run->Driver->restore(Payload) &&
      Run->Policy->State.Stats.Windows == Run->WindowsDone)
    return true;
  Error = "resume state does not match the replayed trace";
  return false;
}

std::string StreamDetector::state() const {
  return Run->Restore.empty() ? Run->Driver->serialize() : Run->Restore;
}

bool StreamDetector::step(StreamStep &Out, bool Degrade,
                          std::string &Error) {
  Error.clear();
  if (!checkParse(Error) || pendingWindows() == 0 || !applyRestore(Error))
    return false;
  const uint64_t Size = Run->Parser.trace().size();
  const uint64_t WS = Opts.Detect.WindowSize;
  Span Window{0, static_cast<EventId>(Size)};
  if (WS != 0) {
    Window.Begin = static_cast<EventId>(Run->WindowsDone * WS);
    Window.End = static_cast<EventId>(std::min(Size, Window.Begin + WS));
  }
  WindowPolicy &P = *Run->Policy;
  bool Degraded = Degrade && Opts.Property == StreamProperty::Race;
  {
    ScopedPhaseTimer TopPhase(P.Phase);
    Run->Driver->push(Window, Degraded);
  }

  Out = StreamStep();
  Out.Window = Run->WindowsDone++;
  Out.Degraded = Degraded;
  for (size_t I = Run->Findings; I < P.numFindings(); ++I)
    Out.Delta += P.renderFinding(I, Opts.Render);
  for (size_t I = Run->Unknowns; I < P.State.Unknowns.size(); ++I)
    Out.Delta += renderUnknownLine(P.State.Unknowns[I]);
  Out.NewFindings = P.numFindings() - Run->Findings;
  if (P.State.Unknowns.size() > Run->Unknowns)
    Out.NewUnknowns = P.State.Unknowns.size() - Run->Unknowns;
  Run->Findings = P.numFindings();
  Run->Unknowns = P.State.Unknowns.size();
  if (Degraded)
    ++Run->DegradedWindows;
  return true;
}

bool StreamDetector::finish(std::string &Summary, std::string &Error,
                            std::vector<StreamStep> *Steps) {
  Error.clear();
  if (!Run->SummaryText.empty()) {
    Summary = Run->SummaryText;
    return true;
  }
  if (!Run->Finished) {
    Run->Parser.finish(); // the input need not end with a newline
    Run->Finished = true;
  }
  if (!Run->Restore.empty() && totalWindows(false) < Run->WindowsDone) {
    // The replay is shorter than the restored snapshot: a different
    // trace. Start over from scratch — always sound, the snapshot only
    // saved time.
    Run->Restore.clear();
    Run->WindowsDone = 0;
  }

  // Drain the tail one window at a time so callers still get per-window
  // deltas for everything that arrived after the last step().
  for (;;) {
    StreamStep S;
    if (!step(S, /*Degrade=*/false, Error)) {
      if (!Error.empty())
        return false;
      break;
    }
    if (Steps)
      Steps->push_back(std::move(S));
  }
  if (!applyRestore(Error))
    return false;

  Run->Driver->finish();
  WindowPolicy &P = *Run->Policy;
  Summary = P.renderReport(Opts.Render);
  Run->Findings = P.numFindings();
  Run->Unknowns = P.State.Unknowns.size();
  Run->SummaryText = Summary;
  return true;
}
