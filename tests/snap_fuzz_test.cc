// Snapshot corruption fuzzing: a valid snapshot is mutated — random
// single-bit flips, random truncations, exhaustive header-byte flips —
// and every mutant must either load successfully or fail with a
// non-empty error. Never a crash, never an out-of-bounds read (CI runs
// this binary under AddressSanitizer). A text edited behind a recomputed
// checksum passes the header and must fail in the `.dx` parser, with the
// parser's positioned error.
//
// The mutation schedule is a fixed-seed mt19937, so a failure
// reproduces; the seed is printed on the first mutant that misbehaves.
//
// The fault-injection fixtures drive the OCDX_FAULT "snap-write" /
// "snap-read" probe sites (util/fault.h): the one probe per file must
// surface as a clean governed error from SerializeSnapshot /
// ParseSnapshot, through the same propagation path a real I/O failure
// would take.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snap/format.h"
#include "snap/snapshot.h"
#include "util/fault.h"

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

// A scenario with several mappings, annotations and queries, so a load
// parses and chases a real scenario.
fs::path BaselineFile() { return fs::path(OCDX_CORPUS_DIR) / "membership.dx"; }

std::string BaselineSnapshot() {
  const fs::path file = BaselineFile();
  const std::string src = ReadFileOrDie(file);
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle(file.string(), src);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  if (!bundle.ok()) return "";
  Result<std::string> bytes = snap::SerializeSnapshot(bundle.value());
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : "";
}

// The load contract under corruption: OK, or a non-OK status with a
// non-empty message. Anything else (and any crash, which ASan or the
// process harness catches) fails the test.
void ExpectCleanOutcome(const std::string& mutant, const char* what,
                        size_t detail) {
  Result<snap::SnapshotBundle> loaded = snap::ParseSnapshot(AsBytes(mutant));
  if (loaded.ok()) return;  // within contract, though every byte of the
                            // file is covered by the header checks
  EXPECT_FALSE(loaded.status().message().empty())
      << what << " " << detail << ": error without a message";
}

TEST(SnapFuzz, RandomBitFlipsNeverCrash) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  std::mt19937 rng(0xC0FFEEu);
  std::uniform_int_distribution<size_t> pick_byte(0, base.size() - 1);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  for (int i = 0; i < 400; ++i) {
    std::string mutant = base;
    const size_t at = pick_byte(rng);
    mutant[at] = static_cast<char>(
        static_cast<uint8_t>(mutant[at]) ^ (1u << pick_bit(rng)));
    SCOPED_TRACE("flip #" + std::to_string(i) + " at byte " +
                 std::to_string(at));
    ExpectCleanOutcome(mutant, "bit flip", at);
  }
}

TEST(SnapFuzz, MultiByteCorruptionNeverCrashes) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  std::mt19937 rng(0xBADC0DEu);
  std::uniform_int_distribution<size_t> pick_byte(0, base.size() - 1);
  std::uniform_int_distribution<int> pick_val(0, 255);
  for (int i = 0; i < 200; ++i) {
    std::string mutant = base;
    // Overwrite a random 1..16-byte window: corrupts length fields and
    // count fields wholesale, the loader's hardest inputs.
    std::uniform_int_distribution<size_t> pick_len(1, 16);
    size_t at = pick_byte(rng);
    size_t len = std::min(pick_len(rng), mutant.size() - at);
    for (size_t j = 0; j < len; ++j) {
      mutant[at + j] = static_cast<char>(pick_val(rng));
    }
    SCOPED_TRACE("stomp #" + std::to_string(i) + " at byte " +
                 std::to_string(at));
    ExpectCleanOutcome(mutant, "stomp", at);
  }
}

TEST(SnapFuzz, TruncationsNeverCrash) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  // Every truncation length across a stride plus the first 64 exact
  // lengths (the header and the path live there).
  std::vector<size_t> lengths;
  for (size_t n = 0; n < std::min<size_t>(64, base.size()); ++n) {
    lengths.push_back(n);
  }
  for (size_t n = 64; n < base.size(); n += 37) lengths.push_back(n);
  for (size_t n : lengths) {
    std::string mutant = base.substr(0, n);
    SCOPED_TRACE("truncate to " + std::to_string(n));
    Result<snap::SnapshotBundle> loaded =
        snap::ParseSnapshot(AsBytes(mutant));
    EXPECT_FALSE(loaded.ok()) << "a strict prefix of " << base.size()
                              << " bytes loaded as a full snapshot";
    EXPECT_FALSE(loaded.status().message().empty());
  }
}

TEST(SnapFuzz, HeaderBytesExhaustive) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  // The fixed header and the path after it: every byte, all 8 bits.
  const size_t header_span = std::min<size_t>(
      snap::kHeaderSize + BaselineFile().string().size(), base.size());
  for (size_t at = 0; at < header_span; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = base;
      mutant[at] =
          static_cast<char>(static_cast<uint8_t>(mutant[at]) ^ (1u << bit));
      SCOPED_TRACE("header byte " + std::to_string(at) + " bit " +
                   std::to_string(bit));
      ExpectCleanOutcome(mutant, "header flip", at);
    }
  }
}

// A text edited behind a recomputed checksum passes every header check,
// so the `.dx` parser is what rejects it, with its own positioned error.
TEST(SnapFuzz, EditedTextFailsInTheParser) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  std::string mutant = base;
  const size_t at = mutant.find("E(a, b);");
  ASSERT_NE(at, std::string::npos);
  mutant.replace(at, 8, "E(a  b);");
  const uint64_t sum = snap::Checksum64(
      AsBytes(mutant).subspan(snap::kHeaderSize));
  for (size_t b = 0; b < 8; ++b) {
    mutant[snap::kChecksumOffset + b] =
        static_cast<char>((sum >> (8 * b)) & 0xff);
  }
  Result<snap::SnapshotBundle> loaded = snap::ParseSnapshot(AsBytes(mutant));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  const std::string message(loaded.status().message());
  EXPECT_NE(message.find("line 10, col 8"), std::string::npos) << message;
}

class SnapFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Clear(); }
};

TEST_F(SnapFaultTest, WriteProbesFailCleanly) {
  const fs::path file = BaselineFile();
  const std::string src = ReadFileOrDie(file);
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle(file.string(), src);
  ASSERT_TRUE(bundle.ok());
  // One probe per file: hit 1 aborts serialization cleanly.
  fault::InstallForTest("snap-write", 1);
  Result<std::string> bytes = snap::SerializeSnapshot(bundle.value());
  EXPECT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kResourceExhausted);
  fault::Clear();
  // Past the one probe the fault never fires.
  fault::InstallForTest("snap-write", 2);
  Result<std::string> clean = snap::SerializeSnapshot(bundle.value());
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

TEST_F(SnapFaultTest, ReadProbesFailCleanly) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  fault::InstallForTest("snap-read", 1);
  Result<snap::SnapshotBundle> loaded = snap::ParseSnapshot(AsBytes(base));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kResourceExhausted);
  fault::Clear();
  fault::InstallForTest("snap-read", 2);
  Result<snap::SnapshotBundle> clean = snap::ParseSnapshot(AsBytes(base));
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

}  // namespace
}  // namespace ocdx
