//===- detect/Checkpoint.cpp - Window checkpoint/resume -------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Checkpoint.h"

#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace rvp;

uint64_t rvp::checkpointHash(std::string_view Data, uint64_t Seed) {
  uint64_t H = Seed;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

CheckpointStore::CheckpointStore(std::string Dir, uint64_t Fingerprint)
    : Dir(std::move(Dir)), Fingerprint(Fingerprint) {
  if (this->Dir.empty())
    return;
  std::error_code Ec;
  std::filesystem::create_directories(this->Dir, Ec);
  if (Ec)
    this->Dir.clear(); // unusable directory: run without checkpoints
}

std::string CheckpointStore::fileFor(uint64_t Index) const {
  return formatString("%s/window-%llu.ckpt", Dir.c_str(),
                      static_cast<unsigned long long>(Index));
}

int64_t CheckpointStore::loadLatest(std::string &Payload,
                                    CheckpointLoad *Outcome) const {
  Payload.clear();
  if (Outcome)
    *Outcome = CheckpointLoad::None;
  if (!enabled())
    return -1;
  int64_t Best = -1;
  std::error_code Ec;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec)) {
    std::string Name = Entry.path().filename().string();
    if (!startsWith(Name, "window-") || Name.size() <= 12 ||
        Name.substr(Name.size() - 5) != ".ckpt")
      continue;
    int64_t Index = 0;
    if (!parseInt(std::string_view(Name).substr(7, Name.size() - 12), Index))
      continue;
    if (Index > Best)
      Best = Index;
  }
  if (Best < 0)
    return -1;

  std::ifstream In(fileFor(static_cast<uint64_t>(Best)),
                   std::ios::in | std::ios::binary);
  if (!In)
    return -1;
  std::string Header;
  if (!std::getline(In, Header))
    return -1;
  std::vector<std::string_view> Parts = split(trim(Header), ' ');
  if (Parts.size() != 3 || Parts[0] != "rvpckpt" ||
      Parts[1] != std::to_string(CheckpointVersion))
    return -1; // unknown format/version: start from scratch
  std::string Stamp =
      formatString("%016llx", static_cast<unsigned long long>(Fingerprint));
  if (Parts[2] != Stamp) {
    // Well-formed snapshot from a different trace or flag set. Callers
    // decide whether that is fatal (the drivers make it exit 2).
    if (Outcome)
      *Outcome = CheckpointLoad::FingerprintMismatch;
    return -1;
  }
  std::ostringstream Rest;
  Rest << In.rdbuf();
  Payload = Rest.str();
  if (Outcome)
    *Outcome = CheckpointLoad::Loaded;
  return Best;
}

void CheckpointStore::refuseMismatch(const CheckpointStore &Store) {
  std::fprintf(stderr,
               "error: checkpoint directory '%s' holds snapshots from a "
               "different analysis (the trace or the detection flags "
               "changed); rerun with the original flags or point "
               "--checkpoint at a fresh directory\n",
               Store.directory().c_str());
  std::exit(ExitUsage);
}

bool CheckpointStore::save(uint64_t Index, const std::string &Payload) const {
  if (!enabled())
    return false;
  std::string Final = fileFor(Index);
  std::string Tmp = Final + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::out | std::ios::binary |
                               std::ios::trunc);
    if (!Out)
      return false;
    Out << formatString("rvpckpt %u %016llx\n", CheckpointVersion,
                        static_cast<unsigned long long>(Fingerprint))
        << Payload;
    Out.flush();
    if (!Out)
      return false;
  }
  // rename() is atomic within a filesystem: a reader sees the old file or
  // the new one, never a torn write.
  if (std::rename(Tmp.c_str(), Final.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}
