#include "snap/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "snap/format.h"
#include "util/fault.h"
#include "util/str.h"

namespace ocdx {
namespace snap {

namespace {

void PutLE(std::string* out, size_t at, uint64_t v, size_t width) {
  for (size_t b = 0; b < width; ++b) {
    (*out)[at + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
}

uint64_t GetLE(std::span<const uint8_t> bytes, size_t at, size_t width) {
  uint64_t v = 0;
  for (size_t b = 0; b < width; ++b) v |= uint64_t{bytes[at + b]} << (8 * b);
  return v;
}

// The checked contents of a snapshot file: views into its bytes.
struct Contents {
  std::string_view path;
  std::string_view text;
};

// Checks the header, the lengths and the checksum, then probes
// "snap-read".
Result<Contents> Unpack(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::DataLoss(StrCat("snapshot: file too small for header (",
                                   bytes.size(), " bytes)"));
  }
  if (!std::equal(kMagic, kMagic + sizeof kMagic, bytes.begin())) {
    return Status::DataLoss("snapshot: bad magic");
  }
  const uint64_t version = GetLE(bytes, kVersionOffset, 4);
  if (version != kFormatVersion) {
    return Status::DataLoss(StrCat("snapshot: unsupported format version ",
                                   version, " (this build reads version ",
                                   kFormatVersion, ")"));
  }
  const uint64_t path_len = GetLE(bytes, kPathLenOffset, 4);
  const uint64_t text_len = GetLE(bytes, kTextLenOffset, 8);
  const uint64_t body = bytes.size() - kHeaderSize;
  if (path_len > body || text_len > body - path_len) {
    return Status::DataLoss(StrCat("snapshot: truncated: the header declares ",
                                   path_len, " path bytes and ", text_len,
                                   " text bytes, but ", body, " follow"));
  }
  if (path_len + text_len != body) {
    return Status::DataLoss(StrCat("snapshot: ", body - path_len - text_len,
                                   " trailing bytes after the text"));
  }
  if (Checksum64(bytes.subspan(kHeaderSize)) !=
      GetLE(bytes, kChecksumOffset, 8)) {
    return Status::DataLoss("snapshot: checksum mismatch");
  }
  OCDX_RETURN_IF_ERROR(fault::Probe("snap-read"));
  const char* chars = reinterpret_cast<const char*>(bytes.data());
  return Contents{std::string_view(chars + kHeaderSize, path_len),
                  std::string_view(chars + kHeaderSize + path_len, text_len)};
}

}  // namespace

Result<std::string> SerializeSnapshot(const SnapshotBundle& bundle) {
  OCDX_RETURN_IF_ERROR(fault::Probe("snap-write"));
  if (bundle.source_path.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("snapshot: source path too long");
  }
  std::string out(kHeaderSize, '\0');
  out.reserve(kHeaderSize + bundle.source_path.size() +
              bundle.dx_text.size());
  out += bundle.source_path;
  out += bundle.dx_text;
  std::copy(kMagic, kMagic + sizeof kMagic, out.begin());
  PutLE(&out, kVersionOffset, kFormatVersion, 4);
  PutLE(&out, kPathLenOffset, bundle.source_path.size(), 4);
  PutLE(&out, kTextLenOffset, bundle.dx_text.size(), 8);
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(out.data()), out.size());
  PutLE(&out, kChecksumOffset, Checksum64(bytes.subspan(kHeaderSize)), 8);
  return out;
}

Result<SnapshotBundle> ParseSnapshot(std::span<const uint8_t> bytes,
                                     const EngineContext& engine) {
  OCDX_ASSIGN_OR_RETURN(Contents contents, Unpack(bytes));
  return BuildFrozenScenario(std::string(contents.path),
                             std::string(contents.text), engine);
}

Status WriteSnapshotFile(const SnapshotBundle& bundle,
                         const std::string& path) {
  OCDX_ASSIGN_OR_RETURN(std::string bytes, SerializeSnapshot(bundle));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !out.write(bytes.data(), static_cast<std::streamsize>(
                                           bytes.size()))) {
    return Status::NotFound(StrCat("cannot write '", path, "'"));
  }
  return Status::OK();
}

Result<SnapshotBundle> LoadSnapshotFile(const std::string& path,
                                        const EngineContext& engine) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrCat("cannot read '", path, "'"));
  }
  // The file's bytes are dropped before the build, so a load holds the
  // text once.
  std::string source_path, dx_text;
  {
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = std::move(buf).str();
    OCDX_ASSIGN_OR_RETURN(
        Contents contents,
        Unpack(std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size())));
    source_path = contents.path;
    dx_text = contents.text;
  }
  return BuildFrozenScenario(std::move(source_path), std::move(dx_text),
                             engine);
}

std::string DescribeSnapshot(const SnapshotBundle& bundle) {
  std::string out = StrCat("snapshot of '", bundle.source_path, "'\n");
  if (!bundle.scenario.name.empty()) {
    out += StrCat("scenario '", bundle.scenario.name, "'\n");
  }
  out += StrCat("text: ", bundle.dx_text.size(), " bytes\n");
  out += StrCat("universe: ", bundle.universe->num_consts(), " constants, ",
                bundle.universe->num_nulls(), " nulls, ",
                bundle.universe->witness_size(), " witness values\n");
  out += StrCat("prechased pairs: ", bundle.prechased.size(), "\n");
  for (const auto& [key, csol] : bundle.prechased.entries()) {
    size_t proper = 0;
    size_t markers = 0;
    for (const auto& [name, rel] : csol.annotated.relations()) {
      proper += rel.NumProperTuples();
      markers += rel.size() - rel.NumProperTuples();
    }
    out += StrCat("  ", key.first, " / ", key.second, ": ",
                  csol.annotated.relations().size(), " relations, ", proper,
                  " tuples, ", markers, " markers, ", csol.triggers.size(),
                  " triggers\n");
  }
  return out;
}

}  // namespace snap
}  // namespace ocdx
