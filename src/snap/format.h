// Binary snapshot container format (version 1).
//
// A snapshot file is a fixed header followed by a sequence of sections:
//
//   header   := magic[8] version:u32 endian:u32 section_count:u32
//               reserved:u32
//   section  := id:u32 reserved:u32 payload_len:u64 checksum:u64
//               payload[payload_len]
//
// All integers are stored in the writing machine's native byte order; the
// `endian` tag (kEndianTag written natively) lets a reader on a foreign-
// endian machine reject the file with a stable error instead of
// misreading every field. `checksum` is FNV-1a-64 over the payload bytes,
// verified before a section is parsed, so a flipped bit anywhere in a
// payload surfaces as one positioned kDataLoss error — never as a crash
// in the section decoders (which additionally bound-check every read).
//
// The section ids and their payload encodings live in snap/snapshot.cc;
// this header is only the framing: checksums, the byte-builder (Sink) and
// the bounded byte-reader (Source), and container assembly/parse.
//
// \invariant Trust model: snapshot bytes are untrusted input. Every
//   failure is a positioned kDataLoss Status — never a throw, crash or
//   out-of-bounds read — and no allocation is sized by an untrusted count
//   without a bound: a count read from the file (sections, annotation
//   pools, triggers) is first checked against what the remaining bytes
//   could encode.

#ifndef OCDX_SNAP_FORMAT_H_
#define OCDX_SNAP_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ocdx {
namespace snap {

/// First 8 bytes of every snapshot file.
inline constexpr char kMagic[8] = {'O', 'C', 'D', 'X', 'S', 'N', 'A', 'P'};

/// Format version this build writes and reads.
inline constexpr uint32_t kFormatVersion = 1;

/// Byte-order tag, written natively: a foreign-endian reader sees the
/// byte-swapped value and rejects the file.
inline constexpr uint32_t kEndianTag = 0x01020304;

/// Section identifiers. The writer emits meta, universe, instances,
/// chased, in that order (kInstances was assigned after kChased; the id
/// is identity, the file order is the contract).
enum class SectionId : uint32_t {
  kMeta = 1,       ///< Source path + embedded `.dx` scenario text.
  kUniverse = 2,   ///< Constant table, justification arena, null registry.
  kChased = 3,     ///< Pre-chased canonical solutions + triggers.
  kInstances = 4,  ///< Scenario instances as binary relation payloads.
};

/// Human name for error messages ("meta", "universe", "chased",
/// "unknown").
const char* SectionIdName(uint32_t id);

/// Section checksum: an FNV-style 64-bit hash processed in 8-byte lanes
/// with a down-mixing shift-xor per lane (byte-at-a-time FNV-1a costs a
/// multiply per byte, which is measurable warm-start time on MB-scale
/// snapshots). Any single-bit corruption changes the value; the lane
/// mixing propagates high-bit differences into low bits so multi-bit
/// damage is caught with ~2^-64 escape probability. Part of format v1 —
/// changing it is a format version bump.
uint64_t Checksum64(std::span<const uint8_t> bytes);

/// Appends native-endian scalars, raw bytes and length-prefixed strings
/// to a growing buffer. The inverse of Source.
class Sink {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I32(int32_t v) { Raw(&v, sizeof v); }
  void Bytes(std::span<const uint8_t> b) { Raw(b.data(), b.size()); }
  /// u64 length + bytes.
  void Str(std::string_view s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounded reader over one section payload. Every read is range-checked;
/// an out-of-bounds read returns a positioned kDataLoss error naming the
/// section and the byte offset, so truncation and length-field corruption
/// can never run past the buffer.
class Source {
 public:
  Source(std::span<const uint8_t> bytes, std::string section)
      : bytes_(bytes), section_(std::move(section)) {}

  // The scalar reads are inline — snapshot loading is a long run of
  // them, and an out-of-line call (plus a cold-path error object) per
  // field would dominate warm-start time. Only the failure path calls
  // out of line.
  Result<uint8_t> U8() {
    if (remaining() < 1) return OutOfBounds(1);
    return bytes_[pos_++];
  }
  Result<uint32_t> U32() { return Scalar<uint32_t>(); }
  Result<uint64_t> U64() { return Scalar<uint64_t>(); }
  Result<int32_t> I32() { return Scalar<int32_t>(); }
  /// u64 length + bytes (length bounded by the remaining payload).
  Result<std::string> Str() {
    OCDX_ASSIGN_OR_RETURN(uint64_t len, U64());
    OCDX_ASSIGN_OR_RETURN(std::span<const uint8_t> b, Bytes(len));
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  Result<std::span<const uint8_t>> Bytes(uint64_t n) {
    if (n > remaining()) return OutOfBounds(n);
    std::span<const uint8_t> out =
        bytes_.subspan(pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return out;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  /// OK iff fully consumed; otherwise a kDataLoss naming the trailing
  /// byte count (a decoder that "succeeds" with bytes left over read a
  /// corrupt structure).
  Status ExpectEnd() const;

  /// The kDataLoss error every bounds failure uses; exposed so section
  /// decoders can report structure-level corruption (bad counts, bad
  /// value bits) at the same position granularity.
  Status Corrupt(std::string_view what) const;

 private:
  template <typename T>
  Result<T> Scalar() {
    if (remaining() < sizeof(T)) return OutOfBounds(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }
  /// Cold path: the positioned kDataLoss a short read produces.
  Status OutOfBounds(uint64_t need) const;

  std::span<const uint8_t> bytes_;
  std::string section_;
  size_t pos_ = 0;
};

/// One parsed section: id + checksum-verified payload view into the file
/// buffer.
struct SectionView {
  uint32_t id = 0;
  std::span<const uint8_t> payload;
};

/// Appends the file header for `section_count` sections.
void AppendHeader(std::string* out, uint32_t section_count);

/// Appends one section (header + checksum + payload bytes).
void AppendSection(std::string* out, SectionId id, const Sink& payload);

/// Validates the container framing — magic, version, endianness, section
/// bounds and checksums — and returns the section views. Every failure is
/// a kDataLoss with stable text (pinned by tests/snap_version_test.cc).
Result<std::vector<SectionView>> ParseContainer(
    std::span<const uint8_t> file);

}  // namespace snap
}  // namespace ocdx

#endif  // OCDX_SNAP_FORMAT_H_
