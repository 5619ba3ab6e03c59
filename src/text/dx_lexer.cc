#include "text/dx_lexer.h"

#include <algorithm>
#include <cstring>

#include "util/str.h"

namespace ocdx {

using namespace dx_chars;

DxLineIndex::DxLineIndex(std::string_view src) {
  line_starts_.push_back(0);
  // memchr, not a per-char loop: the index is built on every parse,
  // including the snapshot loader's elided parse, where this scan is a
  // measurable slice of warm-start time on MB-scale files.
  size_t i = 0;
  while (const void* hit = std::memchr(src.data() + i, '\n', src.size() - i)) {
    i = static_cast<size_t>(static_cast<const char*>(hit) - src.data()) + 1;
    line_starts_.push_back(i);
  }
}

uint32_t DxLineIndex::LineOf(size_t offset) const {
  auto it = std::upper_bound(line_starts_.begin(), line_starts_.end(), offset);
  return static_cast<uint32_t>(it - line_starts_.begin());
}

uint32_t DxLineIndex::ColOf(size_t offset) const {
  uint32_t line = LineOf(offset);
  return static_cast<uint32_t>(offset - line_starts_[line - 1] + 1);
}

std::string DxLineIndex::Describe(size_t offset) const {
  return StrCat("line ", LineOf(offset), ", col ", ColOf(offset));
}

DxToken DxLexer::Fail(size_t pos, std::string_view what) {
  status_ = Status::ParseError(StrCat(what, " at ", lines_.Describe(pos)));
  error_offset_ = pos;
  pos_ = src_.size();
  return DxToken{DxTokKind::kError, src_.substr(pos, 1), pos};
}

DxToken DxLexer::NextSlow(size_t i) {
  if (!status_.ok()) {
    return DxToken{DxTokKind::kError, src_.substr(error_offset_, 1),
                   error_offset_};
  }
  const size_t n = src_.size();
  while (true) {
    while (i < n && (ClassOf(src_[i]) & kSpace)) ++i;
    const bool comment =
        i < n && (src_[i] == '#' ||
                  (src_[i] == '/' && i + 1 < n && src_[i + 1] == '/'));
    if (!comment) break;
    const void* nl = std::memchr(src_.data() + i, '\n', n - i);
    i = nl ? static_cast<size_t>(static_cast<const char*>(nl) - src_.data())
           : n;
  }
  if (i >= n) {
    pos_ = n;
    return DxToken{DxTokKind::kEnd, {}, n};
  }
  if (ClassOf(src_[i]) & (kPunct | kDigit | kIdentStart)) {
    pos_ = i;
    return Next();  // lexed inline; Next() will not come back here
  }
  const char c = src_[i];
  const char next = i + 1 < n ? src_[i + 1] : '\0';
  DxTokKind kind = DxTokKind::kError;
  switch (c) {
    case '!':
      kind = next == '=' ? DxTokKind::kNeq : DxTokKind::kBang;
      break;
    case '-':
      if (next != '>') return Fail(i, "unexpected '-' (did you mean '->')");
      kind = DxTokKind::kArrow;
      break;
    case ':':
      if (next != '-') return Fail(i, "unexpected ':' (did you mean ':-')");
      kind = DxTokKind::kColonDash;
      break;
    case '\'': {
      size_t j = i + 1;
      while (j < n && src_[j] != '\'' && src_[j] != '\n') ++j;
      if (j >= n || src_[j] != '\'') {
        return Fail(i, "unterminated quoted string");
      }
      pos_ = j + 1;
      return DxToken{DxTokKind::kQuoted, src_.substr(i + 1, j - i - 1), i};
    }
    default:
      return Fail(i, StrCat("unexpected character '", std::string(1, c), "'"));
  }
  const size_t len = kind == DxTokKind::kBang ? 1 : 2;
  pos_ = i + len;
  return DxToken{kind, src_.substr(i, len), i};
}

void DxLexer::SkipInstanceBody() {
  // Table-driven scan: run over uninteresting bytes in a single-branch
  // loop and only dispatch on the four characters that matter (`}` ends
  // the body, quotes and comments may hide one).
  static constexpr std::array<bool, 256> kStop = [] {
    std::array<bool, 256> t{};
    for (unsigned char c : {'}', '\'', '#', '/'}) t[c] = true;
    return t;
  }();
  const size_t n = src_.size();
  size_t i = pos_;
  while (i < n) {
    while (i < n && !kStop[static_cast<unsigned char>(src_[i])]) ++i;
    if (i >= n || src_[i] == '}') break;
    if (src_[i] == '\'') {
      ++i;
      while (i < n && src_[i] != '\'' && src_[i] != '\n') ++i;
      if (i < n) ++i;  // closing quote (or keep the newline)
    } else if (src_[i] == '#' || (src_[i] == '/' && i + 1 < n &&
                                  src_[i + 1] == '/')) {
      const void* nl = std::memchr(src_.data() + i, '\n', n - i);
      i = nl ? static_cast<size_t>(static_cast<const char*>(nl) - src_.data())
             : n;
    } else {
      ++i;  // a lone '/', ordinary body content
    }
  }
  pos_ = i;
}

}  // namespace ocdx
