// Snapshot file format (version 2): a fixed header, then the `.dx` text.
//
//   snapshot := magic[8] version:u32 path_len:u32 text_len:u64
//               checksum:u64 path[path_len] text[text_len]
//
// Integers are little-endian on every machine. `path` is the `.dx` path
// the text was read from; `checksum` is Checksum64 over the path and
// text bytes, which lie back to back after the 32-byte fixed part. A
// snapshot stores no parsed or chased state: loading one checks the
// header, the lengths and the checksum, then builds the scenario from
// the text as a cold run would (snap/snapshot.h).
//
// \invariant Trust model: snapshot bytes are untrusted input. Every
//   header failure is a kDataLoss Status with stable text (pinned by
//   tests/snap_version_test.cc), and nothing is allocated before both
//   lengths are checked against the bytes that follow. The text itself
//   is checked by the `.dx` parser, like any other `.dx` input.

#ifndef OCDX_SNAP_FORMAT_H_
#define OCDX_SNAP_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace ocdx {
namespace snap {

/// First 8 bytes of every snapshot file.
inline constexpr char kMagic[8] = {'O', 'C', 'D', 'X', 'S', 'N', 'A', 'P'};

/// Format version this build writes and reads.
inline constexpr uint32_t kFormatVersion = 2;

/// Bytes before the path: magic, version, path_len, text_len, checksum.
inline constexpr size_t kHeaderSize = 32;

/// Byte offsets of the header fields.
inline constexpr size_t kVersionOffset = 8;
inline constexpr size_t kPathLenOffset = 12;
inline constexpr size_t kTextLenOffset = 16;
inline constexpr size_t kChecksumOffset = 24;

/// An FNV-style 64-bit hash processed in 8-byte little-endian lanes with
/// a down-mixing shift-xor per lane. Any single-bit corruption changes
/// the value; the lane mixing propagates high-bit differences into low
/// bits, so multi-bit damage escapes with ~2^-64 probability. Part of the
/// format: changing it is a format version bump.
uint64_t Checksum64(std::span<const uint8_t> bytes);

}  // namespace snap
}  // namespace ocdx

#endif  // OCDX_SNAP_FORMAT_H_
