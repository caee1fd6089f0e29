//===- perfbench/harness/Gate.h - Per-operation correctness gate ----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every measured operation passes through a Gate before it counts as a
/// success. The references are independent of the detector under test:
/// finding counts come from the generator's own pattern bookkeeping
/// (SyntheticSpec::expected*), and a streamed summary is compared with an
/// in-process batch render of the same text. A failed check never aborts
/// the run; it marks the operation failed, which error_rate counts.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GATE_H
#define PERFBENCH_GATE_H

#include <cstdint>
#include <string>

namespace perfbench {

class Gate {
public:
  void expectEqual(const char *What, uint64_t Got, uint64_t Expected);
  void expectTrue(const char *What, bool Cond);
  /// Reports must be byte-identical except for the wall-time field of the
  /// header line ("RV: 8 race(s) in 0.42s").
  void expectSameReport(const char *What, const std::string &Got,
                        const std::string &Reference);
  void fail(const std::string &Why);

  bool ok() const { return Failures == 0; }
  /// The first failure's diagnostic.
  const std::string &why() const { return FirstFailure; }

private:
  unsigned Failures = 0;
  std::string FirstFailure;
};

/// \p Report with the " in <seconds>s" field of its first line removed.
std::string withoutWallTime(const std::string &Report);

} // namespace perfbench

#endif // PERFBENCH_GATE_H
