//===- perfbench/harness/StreamLoad.cpp - Open-loop sessions vs rvpredictd ===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stream workload. rvpredictd runs as a child process; the benchmark
/// is its load generator: one thread drives every session over the unix
/// socket with poll(), sending DATA frames on a fixed schedule whatever
/// the daemon does (open loop), and timestamps each REPORT and SUMMARY as
/// it arrives. Latencies are measured from when the input was *due*, so a
/// generator that falls behind cannot hide a stall.
///
/// The traced run adds what the untraced one must not pay for: a second
/// round against a daemon with --stats-json (its server.* counters), spans
/// around every frame sent and received, the telemetry phase tree of the
/// in-process batch reference, and an in-process StreamDetector replay of
/// the same frames with spans around feed/windowReady/step/finish.
///
//===----------------------------------------------------------------------===//

#include "Gate.h"
#include "Workloads.h"

#include "detect/Stream.h"
#include "server/Framing.h"
#include "support/Telemetry.h"
#include "trace/TraceIO.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

extern char **environ;

using namespace perfbench;
using namespace rvp;

namespace {

/// rvpredictd as a child process. The destructor stops it, so no exit path
/// of the benchmark leaves a daemon behind.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns the daemon and waits until it reports its socket bound.
  /// \p BindSeconds is spawn-to-bound wall time.
  bool start(const std::string &Path, const std::vector<std::string> &Args,
             double &BindSeconds, std::string &Error) {
    int Pipe[2];
    if (::pipe2(Pipe, O_CLOEXEC) != 0) {
      Error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, Pipe[1], 2);
    posix_spawn_file_actions_addopen(&Actions, 1, "/dev/null", O_WRONLY, 0);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Path.c_str()));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    Clock::time_point Begin = Clock::now();
    int Rc = ::posix_spawn(&Pid, Path.c_str(), &Actions, nullptr, Argv.data(),
                           environ);
    posix_spawn_file_actions_destroy(&Actions);
    ::close(Pipe[1]);
    if (Rc != 0) {
      ::close(Pipe[0]);
      Pid = -1;
      Error = "spawn " + Path + ": " + std::strerror(Rc);
      return false;
    }
    ErrFd = Pipe[0];
    Reader = std::thread([this] { readStderr(); });
    std::unique_lock<std::mutex> Lock(M);
    bool Bound = CV.wait_for(Lock, std::chrono::seconds(30), [this] {
      return Eof || ErrText.find("listening on") != std::string::npos;
    });
    BindSeconds = secondsBetween(Begin, Clock::now());
    if (!Bound || ErrText.find("listening on") == std::string::npos) {
      Error = "rvpredictd did not start: " + ErrText;
      Lock.unlock();
      stop();
      return false;
    }
    return true;
  }

  double peakRssMb() const {
    return Pid > 0 ? perfbench::peakRssMb(std::to_string(Pid)) : 0;
  }

  /// SIGTERM (clean drain), escalating to SIGKILL after 30 s. Returns the
  /// exit status, or -1 when the daemon did not exit cleanly.
  int stop() {
    int Status = -1;
    if (Pid > 0) {
      ::kill(Pid, SIGTERM);
      Clock::time_point Begin = Clock::now();
      int WaitStatus = 0;
      for (;;) {
        pid_t R = ::waitpid(Pid, &WaitStatus, WNOHANG);
        if (R == Pid) {
          if (WIFEXITED(WaitStatus))
            Status = WEXITSTATUS(WaitStatus);
          break;
        }
        if (R < 0 && errno != EINTR)
          break;
        if (secondsBetween(Begin, Clock::now()) > 30) {
          ::kill(Pid, SIGKILL);
          ::waitpid(Pid, &WaitStatus, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      Pid = -1;
    }
    if (Reader.joinable())
      Reader.join();
    if (ErrFd >= 0) {
      ::close(ErrFd);
      ErrFd = -1;
    }
    return Status;
  }

private:
  void readStderr() {
    char Buf[4096];
    for (;;) {
      ssize_t N = ::read(ErrFd, Buf, sizeof(Buf));
      if (N < 0 && errno == EINTR)
        continue;
      std::lock_guard<std::mutex> Lock(M);
      if (N <= 0) {
        Eof = true;
        CV.notify_all();
        return;
      }
      ErrText.append(Buf, static_cast<size_t>(N));
      CV.notify_all();
    }
  }

  pid_t Pid = -1;
  int ErrFd = -1;
  std::mutex M; ///< guards ErrText and Eof
  std::condition_variable CV;
  std::string ErrText;
  bool Eof = false;
  std::thread Reader; ///< declared last: uses every member above
};

/// The trace text cut into the DATA frames of the open-loop schedule.
struct Schedule {
  std::vector<std::string_view> Frames;
  /// Per frame: index one past its last event.
  std::vector<size_t> EventEnd;
  size_t Events = 0;
  double Cadence = 0;

  /// Frame carrying event \p Event.
  size_t frameOf(size_t Event) const {
    return static_cast<size_t>(
        std::upper_bound(EventEnd.begin(), EventEnd.end(), Event) -
        EventEnd.begin());
  }
};

Schedule cutFrames(const std::string &Text, const WorkloadConfig &W) {
  Schedule S;
  S.Cadence = W.CadenceSeconds;
  size_t PerFrame = std::max<size_t>(
      1, static_cast<size_t>(W.EventsPerSecond * W.CadenceSeconds + 0.5));
  // Event lines start after the "# ..." header lines.
  std::vector<size_t> LineStart;
  for (size_t Pos = 0; Pos < Text.size();) {
    size_t Nl = Text.find('\n', Pos);
    if (Text[Pos] != '#')
      LineStart.push_back(Pos);
    Pos = Nl == std::string::npos ? Text.size() : Nl + 1;
  }
  S.Events = LineStart.size();
  for (size_t First = 0; First < S.Events; First += PerFrame) {
    size_t Last = std::min(First + PerFrame, S.Events);
    size_t Begin = First == 0 ? 0 : LineStart[First];
    size_t End = Last == S.Events ? Text.size() : LineStart[Last];
    S.Frames.emplace_back(Text.data() + Begin, End - Begin);
    S.EventEnd.push_back(Last);
  }
  return S;
}

/// What the in-process batch path produces for the stream's options.
struct Reference {
  std::string Summary;
  uint64_t Windows = 0;
};

DetectorOptions streamDetectOptions(const WorkloadConfig &W) {
  DetectorOptions D;
  D.WindowSize = W.Window;
  D.Tier = DetectTier::Hybrid;
  D.CollectWitnesses = true;
  D.Jobs = 1; // the daemon's per-session setting; parallelism is per session
  return D;
}

ReportRenderOptions streamRenderOptions() {
  ReportRenderOptions R;
  R.WitnessTag = true;
  return R;
}

/// One client connection and everything observed on it.
struct Session {
  int Fd = -1;
  FrameDecoder Decoder;
  std::string Out;
  size_t Written = 0;
  size_t NextFrame = 0;
  bool FinQueued = false;
  /// Queued frames not yet fully written: (end offset in Out, due time).
  std::deque<std::pair<size_t, Clock::time_point>> Unsent;
  bool Blocked = false;
  Clock::time_point BlockedSince;
  double BlockedSeconds = 0;
  std::vector<Clock::time_point> ReportAt;
  std::vector<unsigned> Reports;
  std::string Summary;
  Clock::time_point SummaryAt;
  bool Done = false;
  Gate G;

  ~Session() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

int connectUnix(const std::string &Path, std::string &Error) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Fd < 0 || Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket: cannot create or path too long";
    if (Fd >= 0)
      ::close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Error = "connect " + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
  return Fd;
}

struct RoundResult {
  std::vector<double> WindowLatencies;
  std::vector<double> SummaryLatencies;
  std::vector<double> Lateness;       ///< per frame: written - due
  std::vector<double> BlockedSeconds; ///< per session
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
};

/// Writes what the socket accepts; records lateness and blocked time.
void flush(Session &S, RoundResult &R, SpanRecorder &Spans, uint64_t Op) {
  while (S.Written < S.Out.size()) {
    Clock::time_point Begin = Clock::now();
    // MSG_NOSIGNAL: a daemon that closed the session must fail the gate,
    // not kill the benchmark with SIGPIPE.
    ssize_t N = ::send(S.Fd, S.Out.data() + S.Written,
                       S.Out.size() - S.Written, MSG_NOSIGNAL);
    Clock::time_point Now = Clock::now();
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!S.Blocked) {
        S.Blocked = true;
        S.BlockedSince = Now;
      }
      return;
    }
    if (N < 0) {
      S.G.fail(std::string("write: ") + std::strerror(errno));
      S.Done = true;
      return;
    }
    Spans.record("net.send", Op, Begin, Now);
    S.Written += static_cast<size_t>(N);
    while (!S.Unsent.empty() && S.Unsent.front().first <= S.Written) {
      R.Lateness.push_back(secondsBetween(S.Unsent.front().second, Now));
      S.Unsent.pop_front();
    }
  }
  if (S.Blocked) {
    S.BlockedSeconds += secondsBetween(S.BlockedSince, Clock::now());
    S.Blocked = false;
  }
  S.Out.clear();
  S.Written = 0;
}

/// Reads and handles every frame available on \p S.
void receive(Session &S, SpanRecorder &Spans, uint64_t Op) {
  char Buf[65536];
  for (;;) {
    Clock::time_point Begin = Clock::now();
    ssize_t N = ::read(S.Fd, Buf, sizeof(Buf));
    Clock::time_point Now = Clock::now();
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    if (N <= 0) {
      S.G.fail("connection dropped before SUMMARY");
      S.Done = true;
      return;
    }
    Spans.record("net.recv", Op, Begin, Now);
    S.Decoder.feed(std::string_view(Buf, static_cast<size_t>(N)));
    Frame F;
    std::string Error;
    for (;;) {
      FrameDecoder::Result Res = S.Decoder.next(F, Error);
      if (Res == FrameDecoder::Result::NeedMore)
        break;
      if (Res == FrameDecoder::Result::Malformed) {
        S.G.fail("malformed frame from daemon: " + Error);
        S.Done = true;
        return;
      }
      switch (F.Type) {
      case FrameType::Report: {
        unsigned long long K = 0;
        if (std::sscanf(F.Payload.c_str(), "window %llu", &K) != 1 ||
            K >= S.Reports.size()) {
          S.G.fail("unexpected REPORT: " +
                   F.Payload.substr(0, F.Payload.find('\n')));
          break;
        }
        if (++S.Reports[K] == 1)
          S.ReportAt[K] = Now;
        break;
      }
      case FrameType::Summary:
        S.Summary = std::move(F.Payload);
        S.SummaryAt = Now;
        S.Done = true;
        return;
      case FrameType::Error:
        S.G.fail("ERROR frame: " + F.Payload);
        S.Done = true;
        return;
      default:
        break; // WELCOME
      }
    }
  }
}

/// One round: W.Sessions concurrent sessions stream \p Sched on the
/// open-loop schedule. Each session is one attempted operation.
RoundResult runRound(const WorkloadConfig &W, const Schedule &Sched,
                     const Reference &Ref, const std::string &SocketPath,
                     SpanRecorder &Spans, uint64_t FirstOp) {
  RoundResult R;
  std::vector<std::unique_ptr<Session>> Sessions;
  const std::string Hello = "property=race technique=rv tier=hybrid window=" +
                            std::to_string(W.Window) + "\n";
  for (unsigned I = 0; I < W.Sessions; ++I) {
    auto S = std::make_unique<Session>();
    S->ReportAt.resize(Ref.Windows);
    S->Reports.resize(Ref.Windows, 0);
    std::string Error;
    S->Fd = connectUnix(SocketPath, Error);
    if (S->Fd < 0) {
      S->G.fail("refused: " + Error);
      S->Done = true;
    } else {
      S->Out = encodeFrame(FrameType::Hello, Hello);
    }
    Sessions.push_back(std::move(S));
  }
  // A short lead so the HELLOs are accepted before the first frame is due.
  // Sessions are staggered evenly across one cadence period, so their
  // frames do not all land on the daemon at the same instant.
  const Clock::time_point T0 =
      Clock::now() + std::chrono::milliseconds(20);
  const size_t NumFrames = Sched.Frames.size();
  auto dueOf = [&](size_t Session, size_t Frame) {
    double Offset = Sched.Cadence * static_cast<double>(Session) /
                    static_cast<double>(Sessions.size());
    return T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        Offset + static_cast<double>(Frame) * Sched.Cadence));
  };
  // FIN is due with the last DATA frame.
  auto finDue = [&](size_t Session) { return dueOf(Session, NumFrames - 1); };
  const Clock::time_point HardDeadline =
      finDue(Sessions.size() - 1) + std::chrono::seconds(60);

  for (;;) {
    Clock::time_point Now = Clock::now();
    bool AllDone = true;
    Clock::time_point NextDue = Now + std::chrono::milliseconds(50);
    for (size_t I = 0; I < Sessions.size(); ++I) {
      Session &S = *Sessions[I];
      if (S.Done)
        continue;
      AllDone = false;
      if (Now > HardDeadline) {
        S.G.fail("timed out waiting for SUMMARY");
        S.Done = true;
        continue;
      }
      while (S.NextFrame < NumFrames && dueOf(I, S.NextFrame) <= Now) {
        S.Out += encodeFrame(FrameType::Data, Sched.Frames[S.NextFrame]);
        S.Unsent.emplace_back(S.Out.size(), dueOf(I, S.NextFrame));
        ++S.NextFrame;
      }
      if (S.NextFrame == NumFrames && !S.FinQueued) {
        S.Out += encodeFrame(FrameType::Fin, "");
        S.Unsent.emplace_back(S.Out.size(), finDue(I));
        S.FinQueued = true;
      }
      if (!S.Out.empty())
        flush(S, R, Spans, FirstOp + I);
      if (S.NextFrame < NumFrames)
        NextDue = std::min(NextDue, dueOf(I, S.NextFrame));
    }
    if (AllDone)
      break;

    std::vector<pollfd> Fds;
    std::vector<size_t> Owners; ///< session index of each pollfd
    for (size_t I = 0; I < Sessions.size(); ++I) {
      if (Sessions[I]->Done)
        continue;
      short Events = POLLIN;
      if (!Sessions[I]->Out.empty())
        Events |= POLLOUT;
      Fds.push_back({Sessions[I]->Fd, Events, 0});
      Owners.push_back(I);
    }
    double Wait = std::max(0.0, secondsBetween(Clock::now(), NextDue));
    timespec Timeout{static_cast<time_t>(Wait),
                     static_cast<long>((Wait - static_cast<time_t>(Wait)) *
                                       1e9)};
    int Ready = ::ppoll(Fds.data(), Fds.size(), &Timeout, nullptr);
    if (Ready < 0 && errno != EINTR)
      break;
    for (size_t I = 0; Ready > 0 && I < Fds.size(); ++I)
      if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
        receive(*Sessions[Owners[I]], Spans, FirstOp + Owners[I]);
  }

  for (size_t I = 0; I < Sessions.size(); ++I) {
    Session &S = *Sessions[I];
    ++R.Attempted;
    if (S.G.ok()) {
      for (uint64_t K = 0; K < Ref.Windows; ++K)
        if (S.Reports[K] != 1) {
          S.G.fail("window " + std::to_string(K) + " reported " +
                   std::to_string(S.Reports[K]) + " times");
          break;
        }
      S.G.expectSameReport("stream summary", S.Summary, Ref.Summary);
    }
    if (!S.G.ok()) {
      ++R.Failed;
      R.Failures.push_back(S.G.why());
      continue;
    }
    for (uint64_t K = 0; K < Ref.Windows; ++K) {
      size_t LastEvent =
          std::min<size_t>((K + 1) * W.Window, Sched.Events) - 1;
      R.WindowLatencies.push_back(
          secondsBetween(dueOf(I, Sched.frameOf(LastEvent)), S.ReportAt[K]));
    }
    R.SummaryLatencies.push_back(secondsBetween(finDue(I), S.SummaryAt));
    R.BlockedSeconds.push_back(S.BlockedSeconds);
  }
  return R;
}

/// Stops \p D. Every daemon the run starts must drain and exit 0, so each
/// stop is one gated operation.
void stopGated(Daemon &D, RunResult &Run) {
  ++Run.Attempted;
  if (D.stop() != 0) {
    ++Run.Failed;
    Run.Failures.push_back("rvpredictd did not drain and exit 0");
  }
}

void absorb(RunResult &Run, const RoundResult &R) {
  Run.Attempted += R.Attempted;
  Run.Failed += R.Failed;
  Run.Failures.insert(Run.Failures.end(), R.Failures.begin(),
                      R.Failures.end());
  Run.Latencies.insert(Run.Latencies.end(), R.WindowLatencies.begin(),
                       R.WindowLatencies.end());
  Run.SummaryLatencies.insert(Run.SummaryLatencies.end(),
                              R.SummaryLatencies.begin(),
                              R.SummaryLatencies.end());
}

uint64_t jsonCounter(const std::string &Json, const std::string &Name) {
  size_t At = Json.find("\"" + Name + "\":");
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Json.c_str() + At + Name.size() + 3, nullptr, 10);
}

/// The in-process batch render of \p Text with the session's options; in
/// the traced run its telemetry feeds the detect.* layer metrics.
bool buildReference(const WorkloadConfig &W, const std::string &Text,
                    SpanRecorder &Spans, LayerSamples *Layers, Reference &Ref,
                    Gate &G, std::vector<std::string> &Notes) {
  std::string Error;
  std::optional<Trace> T;
  double Parse = timed(Spans, "trace.parse", 0,
                       [&] { T = parseTraceText(Text, Error); });
  if (!T) {
    G.fail("reference parse: " + Error);
    return false;
  }
  if (Layers)
    Telemetry::instance().reset();
  DetectionResult R;
  double Call = timed(Spans, "detect.races", 0, [&] {
    R = detectRaces(*T, Technique::Maximal, streamDetectOptions(W));
  });
  double Render = timed(Spans, "report.render", 0, [&] {
    Ref.Summary =
        renderRaceReport(*T, Technique::Maximal, R, streamRenderOptions());
  });
  Ref.Windows = R.Stats.Windows;
  G.expectEqual("reference races", R.raceCount(),
                W.expected(W.Spec.expectedRv()));
  G.expectEqual("reference unknowns", R.Unknowns.size(), 0);
  for (const RaceReport &Race : R.Races)
    G.expectTrue("reference witness valid", Race.WitnessValid);
  if (Layers) {
    Layers->add("trace.parse_s", Parse);
    Layers->add("report.render_s", Render);
    recordDetectLayers(*Layers, {{"detect", &R.Stats, Call, R.raceCount()}},
                       Notes);
  }
  return true;
}

/// Streams the schedule through an in-process StreamDetector with the
/// daemon's session options, spanning each public call.
void replay(const WorkloadConfig &W, const Schedule &Sched,
            const Reference &Ref, SpanRecorder &Spans, LayerSamples &Layers,
            Gate &G) {
  StreamOptions SO;
  SO.Detect = streamDetectOptions(W);
  SO.Render = streamRenderOptions();
  StreamDetector Det(SO);
  const uint64_t Op = 1000000;
  double Feed = 0, Ready = 0, SinceStep = 0;
  std::vector<double> Steps, PerWindow;
  std::string Error;
  for (std::string_view Frame : Sched.Frames) {
    Feed += timed(Spans, "stream.feed", Op, [&] { Det.feed(Frame); });
    for (;;) {
      bool IsReady = false;
      double ReadyDt = timed(Spans, "stream.ready", Op,
                             [&] { IsReady = Det.windowReady(); });
      Ready += ReadyDt;
      SinceStep += ReadyDt;
      if (!IsReady)
        break;
      StreamStep Step;
      bool Ok = false;
      double StepDt = timed(Spans, "stream.step", Op,
                            [&] { Ok = Det.step(Step, false, Error); });
      if (!Ok) {
        G.fail("replay step: " + Error);
        return;
      }
      Steps.push_back(StepDt);
      PerWindow.push_back(SinceStep + StepDt);
      SinceStep = 0;
    }
  }
  std::string Summary;
  bool Ok = false;
  double FinishDt = timed(Spans, "stream.finish", Op,
                          [&] { Ok = Det.finish(Summary, Error); });
  if (!Ok)
    G.fail("replay finish: " + Error);
  G.expectSameReport("replayed summary", Summary, Ref.Summary);
  Layers.add("stream.feed_s", Feed);
  Layers.add("stream.ready_s", Ready);
  Layers.add("stream.step_p50_s", median(Steps));
  Layers.add("stream.finish_s", FinishDt);
  size_t Tenth = std::max<size_t>(1, PerWindow.size() / 10);
  if (PerWindow.size() >= 2 * Tenth) {
    double Early = 0, Late = 0;
    for (size_t I = 0; I < Tenth; ++I) {
      Early += PerWindow[I];
      Late += PerWindow[PerWindow.size() - 1 - I];
    }
    Layers.add("stream.late_over_early", Early > 0 ? Late / Early : 0);
  }
}

} // namespace

RunResult perfbench::runStream(const WorkloadConfig &W,
                               const RunOptions &Options,
                               SpanRecorder &Spans) {
  RunResult Run;
  LayerSamples *Layers = Options.Traced ? &Run.Layers : nullptr;
  const std::string Socket = Options.WorkDir + "/rvpredictd.sock";
  const std::string StatsPath = Options.WorkDir + "/daemon-stats.json";
  const std::vector<std::string> BaseArgs = {"--socket=" + Socket,
                                             "--jobs=" +
                                                 std::to_string(W.Jobs)};

  // Set-up: generate + write the trace, then start a daemon until its
  // socket is bound. Host noise comes in bursts, so the repetitions are
  // spread over the gaps before each measured round and after the last,
  // and spaced out within a gap; the last daemon of a gap serves the next
  // round. Only the first repetition's text is streamed.
  std::string Text;
  std::unique_ptr<Daemon> Live;
  auto setupGap = [&](unsigned Reps, std::string *Out) {
    for (unsigned Rep = 0; Rep < Reps; ++Rep) {
      if (Rep > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      if (Live)
        stopGated(*Live, Run); // the previous repetition's daemon
      Live = std::make_unique<Daemon>();
      std::string Discard;
      ScopedSpan S(Spans, "setup", 0);
      double GenSeconds =
          generateText(W, Spans, Layers, Out && Rep == 0 ? *Out : Discard);
      double Bind = 0;
      std::string Error;
      ScopedSpan D(Spans, "daemon.start", 0);
      if (!Live->start(Options.DaemonPath, BaseArgs, Bind, Error)) {
        Run.Failures.push_back(Error);
        return false;
      }
      Run.SetupSeconds.push_back(GenSeconds + Bind);
    }
    return true;
  };
  auto setupFailed = [&] {
    Run.Attempted = Run.Failed = 1;
    return Run;
  };
  if (!setupGap(1, &Text))
    return setupFailed();

  const Schedule Sched = cutFrames(Text, W);
  for (std::string_view Frame : Sched.Frames)
    if (Frame.size() > MaxFramePayload) {
      Run.Attempted = Run.Failed = 1;
      Run.Failures.push_back("DATA frame above the protocol's payload cap; "
                             "lower EventsPerSecond * CadenceSeconds");
      return Run;
    }
  Reference Ref;
  Gate RefGate;
  // Untraced runs build the reference before measuring; it is not timed.
  {
    SpanRecorder Off(false);
    std::vector<std::string> Unused;
    buildReference(W, Text, Off, nullptr, Ref, RefGate, Unused);
  }
  if (!RefGate.ok()) {
    Run.Attempted = Run.Failed = 1;
    Run.Failures.push_back(RefGate.why());
    return Run;
  }
  const double RoundSeconds =
      static_cast<double>(Sched.Frames.size()) * Sched.Cadence + 1.0;
  Run.Notes.push_back(
      "stream schedule: " + std::to_string(W.Sessions) + " sessions x " +
      std::to_string(Sched.Events) + " events, " +
      std::to_string(Sched.Frames.size()) + " DATA frames every " +
      std::to_string(Sched.Cadence) + " s (" +
      std::to_string(W.EventsPerSecond) + " events/s per session), " +
      std::to_string(Ref.Windows) + " windows of " +
      std::to_string(W.Window) + " per session");

  if (!Options.Traced) {
    unsigned Rounds = std::max(
        1u, static_cast<unsigned>(Options.Seconds / RoundSeconds));
    unsigned PerGap = (SetupReps + Rounds) / (Rounds + 1);
    uint64_t Op = 1;
    for (unsigned I = 0; I < Rounds; ++I, Op += W.Sessions) {
      if (!setupGap(I == 0 ? PerGap - 1 : PerGap, nullptr))
        return setupFailed();
      absorb(Run, runRound(W, Sched, Ref, Socket, Spans, Op));
      Run.PeakRssMb = std::max(Run.PeakRssMb, Live->peakRssMb());
    }
    if (!setupGap(PerGap, nullptr))
      return setupFailed();
    stopGated(*Live, Run);
    return Run;
  }

  // Traced run: one round against the untraced daemon for the overhead
  // baseline, then one against a daemon that records its counters.
  if (!setupGap(SetupReps - 1, nullptr))
    return setupFailed();
  bool WasRecording = Spans.enabled();
  Spans.setEnabled(false);
  RoundResult Base = runRound(W, Sched, Ref, Socket, Spans, 1);
  Spans.setEnabled(WasRecording);
  absorb(Run, Base);
  stopGated(*Live, Run);
  Live = std::make_unique<Daemon>();
  std::vector<std::string> TracedArgs = BaseArgs;
  TracedArgs.push_back("--stats-json=" + StatsPath);
  double Bind = 0;
  std::string Error;
  if (!Live->start(Options.DaemonPath, TracedArgs, Bind, Error)) {
    ++Run.Attempted;
    ++Run.Failed;
    Run.Failures.push_back(Error);
    return Run;
  }
  RoundResult Traced;
  {
    ScopedSpan S(Spans, "round", 0);
    Traced = runRound(W, Sched, Ref, Socket, Spans, 1 + W.Sessions);
  }
  Run.Attempted += Traced.Attempted;
  Run.Failed += Traced.Failed;
  Run.Failures.insert(Run.Failures.end(), Traced.Failures.begin(),
                      Traced.Failures.end());
  Run.PeakRssMb = Live->peakRssMb();
  stopGated(*Live, Run);
  std::ifstream StatsFile(StatsPath);
  std::stringstream Stats;
  Stats << StatsFile.rdbuf();
  for (const char *Counter : {"server.windows_analyzed",
                              "server.backpressure_events",
                              "server.degraded_windows"})
    Run.Layers.add(Counter,
                   static_cast<double>(jsonCounter(Stats.str(), Counter)));
  Run.Layers.add("loadgen.send_blocked_s", median(Traced.BlockedSeconds));
  Run.Layers.add("loadgen.late_p95_s", percentile(Traced.Lateness, 95));
  double BaseP50 = median(Base.WindowLatencies);
  if (BaseP50 > 0)
    Run.Layers.add("trace.overhead_ratio",
                   median(Traced.WindowLatencies) / BaseP50);
  Run.Latencies = Traced.WindowLatencies;

  // The in-process layers: batch reference (telemetry on) and replay.
  Telemetry::setEnabled(true);
  Gate Checks;
  Reference Again;
  buildReference(W, Text, Spans, &Run.Layers, Again, Checks, Run.Notes);
  replay(W, Sched, Ref, Spans, Run.Layers, Checks);
  Telemetry::setEnabled(false);
  ++Run.Attempted; // the replay is one more gated operation
  if (!Checks.ok()) {
    ++Run.Failed;
    Run.Failures.push_back(Checks.why());
  }
  return Run;
}
