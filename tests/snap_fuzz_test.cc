// Snapshot corruption fuzzing: a valid snapshot is mutated — random
// single-bit flips, random truncations, exhaustive header-byte flips —
// and every mutant must either load successfully or fail with a
// positioned error. Never a crash, never an out-of-bounds read (CI runs
// this binary under AddressSanitizer), and every failure is kDataLoss or
// another established status code — never an unclassified kInternal.
//
// The mutation schedule is a fixed-seed mt19937, so a failure
// reproduces; the seed is printed on the first mutant that misbehaves.
//
// The fault-injection fixtures drive the OCDX_FAULT "snap-write" /
// "snap-read" probe sites (util/fault.h): a fault at any of the four
// section probes must surface as a clean governed error from
// SerializeSnapshot / ParseSnapshot, through the same propagation path a
// real I/O failure would take.

#include <algorithm>
#include <cstdint>
#include <cstring>
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

// A scenario with several mappings, annotations and queries, so the
// snapshot exercises every section encoder; built once per fixture.
std::string BaselineSnapshot() {
  const fs::path file = fs::path(OCDX_CORPUS_DIR) / "membership.dx";
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
  if (loaded.ok()) return;  // benign mutation (e.g. flipped a text byte
                            // AND its checksum never matched — impossible
                            // here, but OK loads are within contract)
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
  // lengths (header and section-header boundaries all live there).
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
  // Magic + version + endian + section count + reserved + first section
  // header: all 48 leading bytes, all 8 bits.
  const size_t header_span = std::min<size_t>(48, base.size());
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

// `base` with one more constant, `name`, appended to the universe
// section's constant table. The section's length and checksum are
// rewritten to match, so the container is valid and only the universe
// decoder itself can reject the new entry.
std::string WithExtraConstant(const std::string& base,
                              const std::string& name) {
  Result<std::vector<snap::SectionView>> sections =
      snap::ParseContainer(AsBytes(base));
  EXPECT_TRUE(sections.ok()) << sections.status().ToString();
  if (!sections.ok()) return "";
  for (const snap::SectionView& view : sections.value()) {
    if (view.id != static_cast<uint32_t>(snap::SectionId::kUniverse)) {
      continue;
    }
    const size_t at = static_cast<size_t>(
        view.payload.data() - reinterpret_cast<const uint8_t*>(base.data()));
    std::string payload = base.substr(at, view.payload.size());
    // Payload: u64 count, then count x (u64 length, bytes).
    uint64_t count;
    std::memcpy(&count, payload.data(), sizeof count);
    size_t end = sizeof count;
    for (uint64_t c = 0; c < count; ++c) {
      uint64_t len;
      std::memcpy(&len, payload.data() + end, sizeof len);
      end += sizeof len + len;
    }
    ++count;
    std::memcpy(payload.data(), &count, sizeof count);
    const uint64_t name_len = name.size();
    payload.insert(end, std::string(reinterpret_cast<const char*>(&name_len),
                                    sizeof name_len) +
                            name);
    // The section header ends with payload_len:u64 checksum:u64.
    const uint64_t len = payload.size();
    const uint64_t sum = snap::Checksum64(AsBytes(payload));
    std::string out = base.substr(0, at - 2 * sizeof(uint64_t));
    out.append(reinterpret_cast<const char*>(&len), sizeof len);
    out.append(reinterpret_cast<const char*>(&sum), sizeof sum);
    return out + payload + base.substr(at + view.payload.size());
  }
  ADD_FAILURE() << "no universe section";
  return "";
}

// The `.dx` lexer cannot produce a constant holding `'` or a newline,
// and canonical output could not render one unambiguously; a snapshot
// carrying one is corrupt, reported at its position in the section.
TEST(SnapFuzz, ConstantsNoDxTextCanWriteAreCorrupt) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  // Control: the same surgery with an ordinary name loads.
  Result<snap::SnapshotBundle> control =
      snap::ParseSnapshot(AsBytes(WithExtraConstant(base, "its")));
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  const std::pair<std::string, std::string> cases[] = {
      {"it's", "holds a quote at offset 2"},
      {"a\nb", "holds a newline at offset 1"},
      {"'", "holds a quote at offset 0"}};
  for (const auto& [name, what] : cases) {
    SCOPED_TRACE(name);
    Result<snap::SnapshotBundle> loaded =
        snap::ParseSnapshot(AsBytes(WithExtraConstant(base, name)));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    const std::string message(loaded.status().message());
    EXPECT_NE(message.find("section 'universe' corrupt at byte "),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

class SnapFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Clear(); }
};

TEST_F(SnapFaultTest, WriteProbesFailCleanly) {
  const fs::path file = fs::path(OCDX_CORPUS_DIR) / "membership.dx";
  const std::string src = ReadFileOrDie(file);
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle(file.string(), src);
  ASSERT_TRUE(bundle.ok());
  // One probe per section: hits 1..4 each abort serialization cleanly.
  for (uint64_t nth = 1; nth <= 4; ++nth) {
    fault::InstallForTest("snap-write", nth);
    Result<std::string> bytes = snap::SerializeSnapshot(bundle.value());
    EXPECT_FALSE(bytes.ok()) << "snap-write fault at hit " << nth;
    EXPECT_EQ(bytes.status().code(), StatusCode::kResourceExhausted);
    fault::Clear();
  }
  // Past the last probe the fault never fires.
  fault::InstallForTest("snap-write", 5);
  Result<std::string> clean = snap::SerializeSnapshot(bundle.value());
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

TEST_F(SnapFaultTest, ReadProbesFailCleanly) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  for (uint64_t nth = 1; nth <= 4; ++nth) {
    fault::InstallForTest("snap-read", nth);
    Result<snap::SnapshotBundle> loaded = snap::ParseSnapshot(AsBytes(base));
    EXPECT_FALSE(loaded.ok()) << "snap-read fault at hit " << nth;
    EXPECT_EQ(loaded.status().code(), StatusCode::kResourceExhausted);
    fault::Clear();
  }
  fault::InstallForTest("snap-read", 5);
  Result<snap::SnapshotBundle> clean = snap::ParseSnapshot(AsBytes(base));
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

}  // namespace
}  // namespace ocdx
