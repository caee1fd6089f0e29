//===- perfbench/harness/Gate.cpp - Per-operation correctness gate --------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Gate.h"

using namespace perfbench;

void Gate::fail(const std::string &Why) {
  if (Failures++ == 0)
    FirstFailure = Why;
}

void Gate::expectEqual(const char *What, uint64_t Got, uint64_t Expected) {
  if (Got != Expected)
    fail(std::string(What) + ": got " + std::to_string(Got) + ", expected " +
         std::to_string(Expected));
}

void Gate::expectTrue(const char *What, bool Cond) {
  if (!Cond)
    fail(What);
}

void Gate::expectSameReport(const char *What, const std::string &Got,
                            const std::string &Reference) {
  if (withoutWallTime(Got) != withoutWallTime(Reference))
    fail(std::string(What) + ": report differs from the batch reference");
}

std::string perfbench::withoutWallTime(const std::string &Report) {
  size_t Eol = Report.find('\n');
  size_t In = Report.rfind(" in ", Eol);
  if (In == std::string::npos)
    return Report;
  size_t Unit = Report.find('s', In + 4);
  if (Unit == std::string::npos || (Eol != std::string::npos && Unit > Eol))
    return Report;
  return Report.substr(0, In) + Report.substr(Unit + 1);
}
