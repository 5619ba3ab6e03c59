// `.dx` mutation fuzzing: corpus files are mutated — random byte flips,
// truncation at every token boundary, and tokens spliced in from other
// corpus files — and every mutant must either parse or fail with a
// message that names a "line L, col C" inside the mutant. Never a crash, a hang or a throw
// (CI runs this binary under AddressSanitizer).
//
// The mutation schedule is a fixed-seed mt19937, so a failure
// reproduces; SCOPED_TRACE names the mutation that misbehaved.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "text/dx_lexer.h"
#include "text/dx_parser.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

// Small files that between them use every block kind: a budget block,
// nulls, empty markers, annotated facts, skolem mappings, queries.
constexpr const char* kFiles[] = {"conference.dx", "cyclic_chase.dx",
                                  "empty_markers.dx", "nulls_and_ineq.dx",
                                  "skolem.dx"};

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string Corpus(const char* name) {
  return ReadFileOrDie(fs::path(OCDX_CORPUS_DIR) / name);
}

// The source text of every token of `src`, with its [begin, end) bytes.
struct RawToken {
  size_t begin;
  size_t end;
};

std::vector<RawToken> Tokens(std::string_view src) {
  std::vector<RawToken> out;
  DxLexer lexer(src);
  for (DxToken t = lexer.Next();
       t.kind != DxTokKind::kEnd && t.kind != DxTokKind::kError;
       t = lexer.Next()) {
    const size_t quotes = t.kind == DxTokKind::kQuoted ? 2 : 0;
    out.push_back({t.offset, t.offset + t.text.size() + quotes});
  }
  return out;
}

// True iff `msg` names at least one position, and every "line L, col C"
// it names lies inside `src` (col C may be one past the end of its line).
bool PositionsInside(const std::string& msg, std::string_view src) {
  std::vector<size_t> line_len;
  size_t start = 0;
  for (size_t i = 0; i <= src.size(); ++i) {
    if (i == src.size() || src[i] == '\n') {
      line_len.push_back(i - start);
      start = i + 1;
    }
  }
  // Reads the decimal number at `*at`, advancing past it; 0 if none.
  auto number = [&msg](size_t* at) {
    uint64_t value = 0;
    while (*at < msg.size() && msg[*at] >= '0' && msg[*at] <= '9' &&
           value < (uint64_t{1} << 40)) {
      value = value * 10 + static_cast<uint64_t>(msg[(*at)++] - '0');
    }
    return value;
  };
  bool any = false;
  for (size_t at = msg.find("line "); at != std::string::npos;
       at = msg.find("line ", at)) {
    at += 5;
    const uint64_t line = number(&at);
    if (msg.compare(at, 6, ", col ") != 0) continue;  // prose, not a position
    at += 6;
    const uint64_t col = number(&at);
    if (line < 1 || line > line_len.size()) return false;
    if (col < 1 || col > line_len[line - 1] + 1) return false;
    any = true;
  }
  return any;
}

// The contract: OK, or a failure positioned inside the mutant.
void ExpectCleanOutcome(const std::string& mutant) {
  Universe u;
  try {
    Result<DxScenario> result = ParseDxScenario(mutant, &u);
    if (result.ok()) return;
    EXPECT_TRUE(PositionsInside(result.status().message(), mutant))
        << "unpositioned or out-of-file error: "
        << result.status().ToString() << "\n--- mutant ---\n" << mutant;
  } catch (...) {
    ADD_FAILURE() << "ParseDxScenario threw\n--- mutant ---\n" << mutant;
  }
}

TEST(DxFuzz, CorpusParsesClean) {
  for (const char* name : kFiles) {
    SCOPED_TRACE(name);
    Universe u;
    Result<DxScenario> result = ParseDxScenario(Corpus(name), &u);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST(DxFuzz, RandomByteFlipsNeverCrash) {
  std::mt19937 rng(0xD0C5u);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  std::uniform_int_distribution<int> pick_byte_value(0, 255);
  for (const char* name : kFiles) {
    const std::string base = Corpus(name);
    ASSERT_FALSE(base.empty());
    std::uniform_int_distribution<size_t> pick_at(0, base.size() - 1);
    for (int i = 0; i < 300; ++i) {
      std::string mutant = base;
      const size_t at = pick_at(rng);
      // Half single-bit flips, half whole-byte replacements (which reach
      // punctuation and quotes a bit flip rarely makes).
      mutant[at] = static_cast<char>(
          i % 2 == 0 ? static_cast<uint8_t>(mutant[at]) ^ (1u << pick_bit(rng))
                     : pick_byte_value(rng));
      SCOPED_TRACE(std::string(name) + " flip #" + std::to_string(i) +
                   " at byte " + std::to_string(at));
      ExpectCleanOutcome(mutant);
    }
  }
}

TEST(DxFuzz, TruncationAtEveryTokenBoundaryNeverCrashes) {
  for (const char* name : kFiles) {
    const std::string base = Corpus(name);
    const std::vector<RawToken> tokens = Tokens(base);
    ASSERT_FALSE(tokens.empty());
    for (const RawToken& t : tokens) {
      for (size_t cut : {t.begin, t.end}) {
        SCOPED_TRACE(std::string(name) + " cut at byte " +
                     std::to_string(cut));
        ExpectCleanOutcome(base.substr(0, cut));
      }
    }
  }
}

TEST(DxFuzz, TokenSplicesFromOtherFilesNeverCrash) {
  // The donor pool: every token of every corpus file, bulk_import.dx's
  // fact bodies aside (24k near-identical facts add nothing).
  std::vector<std::string> donors;
  for (const auto& entry : fs::directory_iterator(OCDX_CORPUS_DIR)) {
    if (entry.path().extension() != ".dx" ||
        entry.path().filename() == "bulk_import.dx") {
      continue;
    }
    const std::string src = ReadFileOrDie(entry.path());
    for (const RawToken& t : Tokens(src)) {
      donors.push_back(src.substr(t.begin, t.end - t.begin));
    }
  }
  std::sort(donors.begin(), donors.end());  // directory order varies
  ASSERT_FALSE(donors.empty());
  std::mt19937 rng(0x5911CEu);
  std::uniform_int_distribution<size_t> pick_donor(0, donors.size() - 1);
  for (const char* name : kFiles) {
    const std::string base = Corpus(name);
    const std::vector<RawToken> tokens = Tokens(base);
    std::uniform_int_distribution<size_t> pick_token(0, tokens.size() - 1);
    for (int i = 0; i < 300; ++i) {
      const RawToken& t = tokens[pick_token(rng)];
      const std::string& donor = donors[pick_donor(rng)];
      // Even rounds replace the token, odd rounds insert before it.
      const std::string mutant =
          i % 2 == 0 ? base.substr(0, t.begin) + donor + base.substr(t.end)
                     : base.substr(0, t.begin) + donor + " " +
                           base.substr(t.begin);
      SCOPED_TRACE(std::string(name) + " splice #" + std::to_string(i) +
                   " of '" + donor + "' at byte " + std::to_string(t.begin));
      ExpectCleanOutcome(mutant);
    }
  }
}

}  // namespace
}  // namespace ocdx
