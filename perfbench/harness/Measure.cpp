//===- perfbench/harness/Measure.cpp - Percentiles, spans, layer samples --===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "support/Stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>

using namespace perfbench;

double perfbench::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = P / 100.0 * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * Frac;
}

size_t perfbench::samplesBeyond(size_t Count, double P) {
  return static_cast<size_t>(
      std::floor(static_cast<double>(Count) * (100.0 - P) / 100.0 + 1e-9));
}

TailPercentile perfbench::tailPercentile(const std::vector<double> &Samples) {
  TailPercentile Out;
  Out.Count = Samples.size();
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samplesBeyond(Samples.size(), P) >= 10) {
      Out.P = P;
      Out.Supported = true;
      break;
    }
  }
  Out.Beyond = samplesBeyond(Samples.size(), Out.P);
  Out.Value = percentile(Samples, Out.P);
  return Out;
}

int64_t SpanRecorder::begin(const char *Name, uint64_t Op) {
  if (!Enabled)
    return -1;
  SpanRecord S;
  S.Name = Name;
  S.Start = secondsBetween(Epoch, Clock::now());
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = Op;
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int64_t>(Spans.size() - 1));
  return Open.back();
}

void SpanRecorder::end(int64_t Index) {
  if (Index < 0)
    return;
  Spans[static_cast<size_t>(Index)].End = secondsBetween(Epoch, Clock::now());
  // Spans nest strictly; closing Index also closes anything left above it.
  while (!Open.empty()) {
    int64_t Top = Open.back();
    Open.pop_back();
    if (Top == Index)
      break;
  }
}

void SpanRecorder::record(const char *Name, uint64_t Op,
                          Clock::time_point Start, Clock::time_point End) {
  if (!Enabled)
    return;
  SpanRecord S;
  S.Name = Name;
  S.Start = secondsBetween(Epoch, Start);
  S.End = secondsBetween(Epoch, End);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = Op;
  Spans.push_back(std::move(S));
}

std::map<std::string, double> SpanRecorder::selfSeconds() const {
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      Covered[static_cast<size_t>(S.Parent)] += S.End - S.Start;
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Spans[I].End - Spans[I].Start - Covered[I];
  return Out;
}

bool SpanRecorder::writeJsonLines(const std::string &Path) const {
  std::ofstream File(Path);
  if (!File)
    return false;
  for (const SpanRecord &S : Spans) {
    rvp::JsonObject J;
    J.field("name", S.Name)
        .field("start_s", S.Start)
        .field("end_s", S.End)
        .field("parent", S.Parent)
        .field("op", S.Op);
    File << J.str() << '\n';
  }
  return static_cast<bool>(File);
}

double LayerSamples::value(const std::string &Name) const {
  auto It = Samples.find(Name);
  return It == Samples.end() ? 0 : median(It->second);
}

double perfbench::peakRssMb(const std::string &Pid) {
  std::ifstream Status("/proc/" + Pid + "/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB -> MiB
  return 0;
}
