#include "text/dx_lexer.h"

#include <algorithm>
#include <cstring>

#include "util/str.h"

namespace ocdx {

using namespace dx_chars;

DxLineIndex::DxLineIndex(std::string_view src) {
  line_starts_.push_back(0);
  // memchr, not a per-char loop: the index is built on every parse, and
  // this scan is a measurable slice of parse time on MB-scale files.
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

}  // namespace ocdx
