// Pull lexer for the `.dx` scenario format (see docs/format.md).
//
// A `.dx` file is the textual substrate for whole data-exchange
// scenarios: schema declarations, annotated mappings (the rule grammar of
// src/mapping/rule_parser.h), source-instance literals and query blocks.
// DxLexer hands out one token per Next() call; each token's text is a
// view into the caller's source, so lexing allocates nothing and a
// fact-heavy file is never held as a token vector. `#` and `//` start
// comments that run to the end of the line.
//
// The token set is a superset of the formula/rule token set
// (logic/parser.h): everything a rule or formula uses, plus the braces
// and brackets that delimit scenario blocks. The `.dx` parser converts
// block-interior tokens back into logic tokens (preserving absolute
// offsets) so the existing recursive-descent rule/formula parsers can be
// reused mid-stream with correctly positioned errors.

#ifndef OCDX_TEXT_DX_LEXER_H_
#define OCDX_TEXT_DX_LEXER_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ocdx {

enum class DxTokKind : uint8_t {
  kIdent,     ///< Identifiers and keywords; also null literals (`_n1`).
  kQuoted,    ///< 'single-quoted' constant or description string.
  kInt,       ///< Bare integer constant.
  kLBrace,    ///< `{`
  kRBrace,    ///< `}`
  kLBracket,  ///< `[`
  kRBracket,  ///< `]`
  kLParen,
  kRParen,
  kComma,
  kSemicolon,
  kCaret,      ///< `^` annotation marker.
  kDot,
  kEq,
  kNeq,
  kBang,
  kAmp,
  kPipe,
  kArrow,      ///< `->`
  kColonDash,  ///< `:-`
  kEnd,
  kError,      ///< Lexical error; DxLexer::status() says which and where.
};

struct DxToken {
  DxTokKind kind;
  std::string_view text;  ///< Views the source; a kQuoted token's text
                          ///< excludes the quotes, kEnd's is empty.
  size_t offset;  ///< Byte offset in the source; the parser turns offsets
                  ///< into "line L, col C" through DxLineIndex on demand.
};

/// Maps a byte offset back to "line L, col C" (both 1-based). Used to
/// position errors reported by the embedded formula/rule parsers, which
/// speak absolute offsets.
struct DxLineIndex {
  explicit DxLineIndex(std::string_view src);

  uint32_t LineOf(size_t offset) const;
  uint32_t ColOf(size_t offset) const;
  std::string Describe(size_t offset) const;  ///< "line L, col C"

 private:
  std::vector<size_t> line_starts_;  ///< Offset of the start of each line.
};

// Implementation detail of the inline DxLexer::Next().
namespace dx_chars {

// Character classes of the "C" locale, one table lookup per byte; a
// single-character punctuation token also carries its kind.
enum : uint8_t { kSpace = 1, kDigit = 2, kIdentStart = 4, kPunct = 8 };

struct CharInfo {
  uint8_t cls = 0;
  DxTokKind punct = DxTokKind::kError;  ///< Meaningful iff cls has kPunct.
};

inline constexpr std::array<CharInfo, 256> kTable = [] {
  std::array<CharInfo, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c].cls = kSpace;
  for (int c = '0'; c <= '9'; ++c) t[c].cls = kDigit;
  for (int c = 'a'; c <= 'z'; ++c) t[c].cls = kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) t[c].cls = kIdentStart;
  t[static_cast<unsigned char>('_')].cls = kIdentStart;
  const std::pair<char, DxTokKind> punct[] = {
      {'{', DxTokKind::kLBrace},   {'}', DxTokKind::kRBrace},
      {'[', DxTokKind::kLBracket}, {']', DxTokKind::kRBracket},
      {'(', DxTokKind::kLParen},   {')', DxTokKind::kRParen},
      {',', DxTokKind::kComma},    {';', DxTokKind::kSemicolon},
      {'^', DxTokKind::kCaret},    {'.', DxTokKind::kDot},
      {'=', DxTokKind::kEq},       {'&', DxTokKind::kAmp},
      {'|', DxTokKind::kPipe}};
  for (const auto& [c, kind] : punct) {
    t[static_cast<unsigned char>(c)] = CharInfo{kPunct, kind};
  }
  return t;
}();

}  // namespace dx_chars

/// Splits a `.dx` source into tokens on demand. The source must outlive
/// the lexer and every token it hands out.
class DxLexer {
 public:
  explicit DxLexer(std::string_view src) : src_(src), lines_(src) {}

  /// The next token. Past the end it keeps returning kEnd. On an unknown
  /// character or an unterminated quote it returns kError, and keeps
  /// returning it; status() then holds the positioned ParseError
  /// ("... at line L, col C").
  ///
  /// Inline, because the parser calls it once per token: punctuation,
  /// identifiers and integers are lexed here, everything else in
  /// NextSlow().
  DxToken Next() {
    using namespace dx_chars;
    const size_t n = src_.size();
    size_t i = pos_;
    while (i < n && (ClassOf(src_[i]) & kSpace)) ++i;
    if (i >= n) return NextSlow(i);
    const CharInfo info = kTable[static_cast<unsigned char>(src_[i])];
    size_t j = i + 1;
    DxTokKind kind = DxTokKind::kError;
    if (info.cls & kPunct) {
      kind = info.punct;
    } else if (info.cls & kDigit) {
      while (j < n && (ClassOf(src_[j]) & kDigit)) ++j;
      kind = DxTokKind::kInt;
    } else if (info.cls & kIdentStart) {
      while (j < n && (ClassOf(src_[j]) & (kIdentStart | kDigit))) ++j;
      kind = DxTokKind::kIdent;
    } else {
      return NextSlow(i);
    }
    pos_ = j;
    return DxToken{kind, src_.substr(i, j - i), i};
  }

  /// OK until Next() has returned kError.
  const Status& status() const { return status_; }

  const DxLineIndex& lines() const { return lines_; }

 private:
  static uint8_t ClassOf(char c) {
    return dx_chars::kTable[static_cast<unsigned char>(c)].cls;
  }

  /// Everything Next() does not lex inline, from offset `i`: comments,
  /// quoted strings, two-character operators, lexical errors and the end
  /// of input.
  DxToken NextSlow(size_t i);
  DxToken Fail(size_t pos, std::string_view what);

  std::string_view src_;
  size_t pos_ = 0;
  DxLineIndex lines_;
  Status status_;
  size_t error_offset_ = 0;
};

}  // namespace ocdx

#endif  // OCDX_TEXT_DX_LEXER_H_
