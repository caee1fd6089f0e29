//===- support/BuildInfo.cpp - Run metadata for JSON outputs ----------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BuildInfo.h"

#include "support/Stats.h"
#include "support/Version.h"

#include <cstdio>
#include <ctime>

using namespace rvp;

const char *rvp::gitSha() { return RVP_GIT_SHA; }

std::string rvp::isoTimestampUtc() {
  std::time_t Now = std::time(nullptr);
  std::tm Utc{};
  gmtime_r(&Now, &Utc);
  // Sized for six full-range ints (11 characters each) and the
  // separators, so no field value can truncate the stamp.
  char Buf[80];
  std::snprintf(Buf, sizeof(Buf), "%04d-%02d-%02dT%02d:%02d:%02dZ",
                Utc.tm_year + 1900, Utc.tm_mon + 1, Utc.tm_mday, Utc.tm_hour,
                Utc.tm_min, Utc.tm_sec);
  return Buf;
}

void rvp::appendRunMetadata(JsonObject &Json) {
  Json.field("schema_version", static_cast<uint64_t>(StatsSchemaVersion))
      .field("git_sha", gitSha())
      .field("timestamp", isoTimestampUtc());
}
