//===- trace/TraceIO.cpp - Trace text serialization ------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/Compiler.h"
#include "support/StringUtils.h"

using namespace rvp;

std::string rvp::writeTraceText(const Trace &T, Span S) {
  std::string Out = "# rvp-trace v1\n";
  for (EventId Id = S.Begin; Id < S.End && Id < T.size(); ++Id) {
    const Event &E = T[Id];
    Out += eventKindName(E.Kind);
    Out += ' ';
    Out += T.threadName(E.Tid);
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      Out += ' ' + T.varName(E.Target) + ' ' + std::to_string(E.Data);
      break;
    case EventKind::Acquire:
    case EventKind::Release:
    case EventKind::Notify:
      Out += ' ' + T.lockName(E.Target);
      break;
    case EventKind::Fork:
    case EventKind::Join:
      Out += ' ' + T.threadName(E.Target);
      break;
    case EventKind::Begin:
    case EventKind::End:
    case EventKind::Branch:
      break;
    case EventKind::Wait:
      RVP_UNREACHABLE("unlowered wait event in trace");
    }
    if (E.Loc != UnknownLoc)
      Out += " @" + T.locName(E.Loc);
    if (E.Volatile)
      Out += " volatile";
    if (E.Aux != 0)
      Out += " match=" + std::to_string(E.Aux);
    Out += '\n';
  }
  return Out;
}

std::string rvp::writeTraceText(const Trace &T) {
  return writeTraceText(T, T.fullSpan());
}

TraceParser::TraceParser(TraceParseOptions Options)
    : Opts(std::move(Options)) {
  if (Opts.SkipBadEvents)
    Checker.emplace(ConsistencyMode::Fragment);
}

bool TraceParser::feed(std::string_view Text) {
  if (!Error.empty())
    return false;
  size_t Start = 0;
  if (!Partial.empty()) {
    size_t End = Text.find('\n');
    if (End == std::string_view::npos) {
      Partial.append(Text);
      return true;
    }
    Partial.append(Text.substr(0, End));
    bool Ok = parseLine(Partial);
    Partial.clear();
    if (!Ok)
      return false;
    Start = End + 1;
  }
  for (size_t End; (End = Text.find('\n', Start)) != std::string_view::npos;
       Start = End + 1)
    if (!parseLine(Text.substr(Start, End - Start)))
      return false;
  Partial.append(Text.substr(Start));
  T.finalize();
  return true;
}

bool TraceParser::finish() {
  if (!Error.empty())
    return false;
  // The text need not end with a newline; an empty remainder is the
  // blank line after the last one.
  std::string Last;
  Last.swap(Partial);
  if (!parseLine(Last))
    return false;
  T.finalize();
  return true;
}

/// Parses one line; \p Raw is the untrimmed line, against which column
/// numbers are computed. Validation is complete before any interning, so
/// a line the grammar rejects leaves the trace untouched.
bool TraceParser::parseLine(std::string_view Raw) {
  ++LineNo;
  std::string_view Line = trim(Raw);
  if (Line.empty() || Line[0] == '#')
    return true;
  // A grammar error: skipped under SkipBadEvents, else the diagnostic
  // "file.txt:3:17: message (offending token 'xyz')" with a file name,
  // "line 3, col 17: ..." without one. The column is the token's 1-based
  // offset in the raw line.
  auto reject = [&](std::string_view Token, const std::string &Msg) {
    if (Opts.SkipBadEvents) {
      ++Skipped;
      return true;
    }
    size_t Col = static_cast<size_t>(Token.data() - Raw.data()) + 1;
    Error = Opts.FileName.empty()
                ? formatString("line %zu, col %zu: %s", LineNo, Col,
                               Msg.c_str())
                : formatString("%s:%zu:%zu: %s", Opts.FileName.c_str(),
                               LineNo, Col, Msg.c_str());
    Error += formatString(" (offending token '%.*s')",
                          static_cast<int>(Token.size()), Token.data());
    return false;
  };
  std::vector<std::string_view> Fields;
  for (std::string_view Field : split(Line, ' '))
    if (!Field.empty())
      Fields.push_back(Field);

  // Trailing modifiers: @loc, volatile, match=N.
  Event E;
  std::string Loc;
  size_t NumCore = Fields.size();
  while (NumCore > 0) {
    std::string_view Last = Fields[NumCore - 1];
    if (Last == "volatile") {
      E.Volatile = true;
    } else if (startsWith(Last, "@")) {
      Loc = std::string(Last.substr(1));
    } else if (startsWith(Last, "match=")) {
      int64_t Match = 0;
      if (!parseInt(Last.substr(6), Match) || Match < 0)
        return reject(Last, "malformed match id");
    } else {
      break;
    }
    --NumCore;
  }
  if (NumCore < 2)
    return reject(Fields[0], "expected '<kind> <thread> ...'");

  std::string Kind(Fields[0]);
  auto needFields = [&](size_t N) { return NumCore == N; };
  int64_t Value = 0;

  if (Kind == "read" || Kind == "write") {
    if (!needFields(4))
      return reject(Fields[0],
                    "expected '" + Kind + " <thread> <var> <value>'");
    E.Kind = Kind == "read" ? EventKind::Read : EventKind::Write;
    if (!parseInt(Fields[3], Value))
      return reject(Fields[3], "malformed value");
    E.Data = Value;
  } else if (Kind == "acquire" || Kind == "release" || Kind == "notify") {
    if (!needFields(3))
      return reject(Fields[0], "expected '" + Kind + " <thread> <lock>'");
    E.Kind = Kind == "acquire"  ? EventKind::Acquire
             : Kind == "release" ? EventKind::Release
                                 : EventKind::Notify;
  } else if (Kind == "fork" || Kind == "join") {
    if (!needFields(3))
      return reject(Fields[0], "expected '" + Kind + " <thread> <child>'");
    E.Kind = Kind == "fork" ? EventKind::Fork : EventKind::Join;
  } else if (Kind == "begin" || Kind == "end" || Kind == "branch") {
    if (!needFields(2))
      return reject(Fields[0], "expected '" + Kind + " <thread>'");
    E.Kind = Kind == "begin" ? EventKind::Begin
             : Kind == "end" ? EventKind::End
                             : EventKind::Branch;
  } else {
    return reject(Fields[0], "unknown event kind '" + Kind + "'");
  }

  // The modifier loop already parsed match=N; re-derive Aux now that the
  // line is known good.
  for (size_t I = NumCore; I < Fields.size(); ++I)
    if (startsWith(Fields[I], "match=")) {
      int64_t Match = 0;
      parseInt(Fields[I].substr(6), Match);
      E.Aux = static_cast<uint32_t>(Match);
    }

  // Interning happens last, in the historical order (thread, location,
  // target), so well-formed traces get byte-identical name tables.
  Trace::NameMark Mark = T.nameMark();
  E.Tid = T.internThread(std::string(Fields[1]));
  E.Loc = Loc.empty() ? UnknownLoc : T.internLoc(Loc);
  switch (E.Kind) {
  case EventKind::Read:
  case EventKind::Write:
    E.Target = T.internVar(std::string(Fields[2]));
    break;
  case EventKind::Acquire:
  case EventKind::Release:
  case EventKind::Notify:
    E.Target = T.internLock(std::string(Fields[2]));
    break;
  case EventKind::Fork:
  case EventKind::Join:
    E.Target = T.internThread(std::string(Fields[2]));
    break;
  default:
    break;
  }

  EventId Id = T.append(E);
  // Semantic skips (docs/ROBUSTNESS.md): garbage that parses but cannot
  // have happened (an unmatched release, a read of a value never
  // written, a double acquire) is dropped as if its line were deleted.
  if (Checker && !Checker->step(T, Id).Ok) {
    T.dropLast(Mark);
    ++Skipped;
  }
  return true;
}

std::optional<Trace> rvp::parseTraceText(std::string_view Text,
                                         std::string &Error,
                                         const TraceParseOptions &Options) {
  TraceParser P(Options);
  if (!P.feed(Text) || !P.finish()) {
    Error = P.error();
    return std::nullopt;
  }
  return P.take();
}
