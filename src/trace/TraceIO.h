//===- trace/TraceIO.h - Trace text serialization ---------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented text format for traces, used by the examples, the
/// figure-reproduction harness, and golden tests. One event per line:
///
///   read    <thread> <var> <value> [@<loc>] [volatile]
///   write   <thread> <var> <value> [@<loc>] [volatile]
///   acquire <thread> <lock> [@<loc>] [match=<n>]
///   release <thread> <lock> [@<loc>] [match=<n>]
///   notify  <thread> <lock> [@<loc>] [match=<n>]
///   fork    <thread> <child> [@<loc>]
///   join    <thread> <child> [@<loc>]
///   begin   <thread> [@<loc>]
///   end     <thread> [@<loc>]
///   branch  <thread> [@<loc>]
///
/// Blank lines and lines starting with '#' are ignored.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_TRACE_TRACEIO_H
#define RVP_TRACE_TRACEIO_H

#include "trace/Consistency.h"
#include "trace/Trace.h"

#include <optional>
#include <string>

namespace rvp {

/// Serializes \p T (or the \p S sub-range) to the text format.
std::string writeTraceText(const Trace &T, Span S);
std::string writeTraceText(const Trace &T);

struct TraceParseOptions {
  /// Skip malformed event lines instead of failing the parse; each skip is
  /// counted in TraceParser::skippedEvents() (`--skip-bad-events`).
  /// Skipped lines intern nothing, so the surviving trace is identical to
  /// parsing the file with the bad lines deleted.
  bool SkipBadEvents = false;
  /// File name prefixed to diagnostics ("file.txt:3:17: message"); when
  /// empty, diagnostics use the "line 3, col 17: message" form.
  std::string FileName;
};

/// The text parser. Text goes in through feed() in chunks of any size (a
/// chunk may end mid-line), and finish() marks the end of the input. Each
/// line is parsed once, when its newline arrives, and trace() is
/// finalized after every feed(). parseTraceText is one feed() and a
/// finish(); the streaming detector feeds each chunk as it arrives.
///
/// Under SkipBadEvents a line the grammar rejects interns nothing, and an
/// event the forward consistency checker (Fragment mode) rejects is
/// dropped with the names its line interned, so the trace is always the
/// input with the bad lines deleted.
class TraceParser {
public:
  explicit TraceParser(TraceParseOptions Options = TraceParseOptions());

  /// Parses every line \p Text completes. False once a line fails to
  /// parse (strict mode); error() then holds the diagnostic and further
  /// input is ignored.
  bool feed(std::string_view Text);
  /// End of input: parses a last line that has no newline.
  bool finish();

  const Trace &trace() const { return T; }
  Trace take() { return std::move(T); }
  const std::string &error() const { return Error; }
  /// Malformed event lines skipped under SkipBadEvents.
  uint64_t skippedEvents() const { return Skipped; }

private:
  bool parseLine(std::string_view Raw);

  TraceParseOptions Opts;
  Trace T;
  std::optional<ConsistencyChecker> Checker; ///< under SkipBadEvents
  std::string Partial; ///< the unterminated last line so far
  size_t LineNo = 0;
  uint64_t Skipped = 0;
  std::string Error;
};

/// Parses the text format. On success returns a finalized trace; on failure
/// returns std::nullopt and stores a diagnostic in \p Error, pointing at
/// the offending line, column, and token.
std::optional<Trace>
parseTraceText(std::string_view Text, std::string &Error,
               const TraceParseOptions &Options = TraceParseOptions());

} // namespace rvp

#endif // RVP_TRACE_TRACEIO_H
