// Header rejection, pinned by a golden file.
//
// A reader must reject — with STABLE error text — snapshots it cannot
// safely interpret: wrong magic, another format version (a future
// writer's, or a version 1 binary snapshot), a short header, lengths
// that disagree with the file, checksum mismatches and trailing bytes.
// The exact error strings are an API (operators grep for them, the
// daemon forwards them over the wire), so this test collects each
// rejection's text and diffs the block against
// tests/corpus/golden/snapshot_errors.golden.
//
// To regenerate after an intentional message change:
//
//   OCDX_REGEN_GOLDEN=1 ./build/snap_version_test

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "snap/format.h"
#include "snap/snapshot.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::span<const uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

std::string BaselineSnapshot() {
  const fs::path file = fs::path(OCDX_CORPUS_DIR) / "conference.dx";
  const std::string src = ReadFileOrDie(file);
  // A relative path keeps the pinned lengths independent of the
  // checkout's location.
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle("conference.dx", src);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  if (!bundle.ok()) return "";
  Result<std::string> bytes = snap::SerializeSnapshot(bundle.value());
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : "";
}

// Header fields are little-endian (snap/format.h).
void PutLE(std::string* buf, size_t at, uint64_t v, size_t width) {
  for (size_t b = 0; b < width; ++b) {
    (*buf)[at + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
}

uint64_t GetLE(const std::string& buf, size_t at, size_t width) {
  uint64_t v = 0;
  for (size_t b = 0; b < width; ++b) {
    v |= uint64_t{static_cast<uint8_t>(buf[at + b])} << (8 * b);
  }
  return v;
}

// The leading bytes of a version 1 snapshot: magic, version 1, its
// endian tag, four sections, a reserved word, then the first section
// header (id 1, reserved, payload length, checksum).
std::string VersionOneHeader() {
  std::string v1(snap::kMagic, sizeof snap::kMagic);
  v1.resize(48, '\0');
  PutLE(&v1, 8, 1, 4);
  PutLE(&v1, 12, 0x01020304, 4);
  PutLE(&v1, 16, 4, 4);
  PutLE(&v1, 24, 1, 4);
  return v1;
}

TEST(SnapVersion, RejectionTextsMatchGolden) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());

  std::ostringstream report;
  auto reject = [&](const char* label, const std::string& mutant) {
    Result<snap::SnapshotBundle> loaded =
        snap::ParseSnapshot(AsBytes(mutant));
    ASSERT_FALSE(loaded.ok()) << label << ": mutant loaded successfully";
    report << label << ": " << loaded.status().ToString() << "\n";
  };

  // Wrong magic.
  {
    std::string m = base;
    m[0] = 'X';
    reject("bad-magic", m);
  }
  // Bumped format version (a future writer's file).
  {
    std::string m = base;
    PutLE(&m, snap::kVersionOffset, snap::kFormatVersion + 1, 4);
    reject("future-version", m);
  }
  // A version 1 binary snapshot is an unsupported version, not garbage.
  reject("version-1-file", VersionOneHeader());
  // Truncated header.
  reject("short-header", base.substr(0, 10));
  // The text length claims one byte more than the file holds.
  {
    std::string m = base;
    PutLE(&m, snap::kTextLenOffset,
          GetLE(base, snap::kTextLenOffset, 8) + 1, 8);
    reject("length-mismatch", m);
  }
  // A text byte flip: the checksum catches it before the parser runs.
  {
    std::string m = base;
    m.back() = static_cast<char>(static_cast<uint8_t>(m.back()) ^ 0xff);
    reject("checksum-mismatch", m);
  }
  // Trailing garbage after the text.
  reject("trailing-bytes", base + "xyz");

  const fs::path golden_path =
      fs::path(OCDX_CORPUS_DIR) / "golden" / "snapshot_errors.golden";
  if (std::getenv("OCDX_REGEN_GOLDEN") != nullptr) {
    fs::create_directories(golden_path.parent_path());
    std::ofstream out(golden_path, std::ios::binary);
    out << report.str();
    return;
  }
  ASSERT_TRUE(fs::exists(golden_path))
      << "missing golden file " << golden_path
      << " (run with OCDX_REGEN_GOLDEN=1 to create it)";
  EXPECT_EQ(ReadFileOrDie(golden_path), report.str())
      << "rejection text drifted from " << golden_path
      << " (re-run with OCDX_REGEN_GOLDEN=1 if the change is intended)";
}

// The version gate is exact: this build reads exactly kFormatVersion,
// and a reader one version behind a future writer refuses rather than
// misparsing — the upgrade path is re-writing the snapshot, never a
// silent best-effort read.
TEST(SnapVersion, CurrentVersionRoundTrips) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(GetLE(base, snap::kVersionOffset, 4), snap::kFormatVersion);
  EXPECT_TRUE(snap::ParseSnapshot(AsBytes(base)).ok());
}

}  // namespace
}  // namespace ocdx
