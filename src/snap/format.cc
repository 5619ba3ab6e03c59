#include "snap/format.h"

#include "util/str.h"

namespace ocdx {
namespace snap {

const char* SectionIdName(uint32_t id) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kMeta:
      return "meta";
    case SectionId::kUniverse:
      return "universe";
    case SectionId::kChased:
      return "chased";
    case SectionId::kInstances:
      return "instances";
  }
  return "unknown";
}

uint64_t Checksum64(std::span<const uint8_t> bytes) {
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t h = 0xcbf29ce484222325ULL;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  while (n >= sizeof(uint64_t)) {
    uint64_t lane;
    std::memcpy(&lane, p, sizeof lane);
    h ^= lane;
    h *= kPrime;
    h ^= h >> 29;  // multiply only mixes upward; fold the top bits back
    p += sizeof lane;
    n -= sizeof lane;
  }
  for (; n > 0; --n) {
    h ^= *p++;
    h *= kPrime;
  }
  // Fold the length in so a file truncated at a lane boundary cannot
  // alias its own prefix.
  h ^= static_cast<uint64_t>(bytes.size());
  h *= kPrime;
  return h;
}

Status Source::Corrupt(std::string_view what) const {
  return Status::DataLoss(StrCat("snapshot: section '", section_,
                                 "' corrupt at byte ", pos_, ": ", what));
}

Status Source::OutOfBounds(uint64_t need) const {
  return Corrupt(StrCat("need ", need, " bytes, ", remaining(), " left"));
}

Status Source::ExpectEnd() const {
  if (AtEnd()) return Status::OK();
  return Status::DataLoss(StrCat("snapshot: section '", section_, "' has ",
                                 remaining(), " trailing bytes"));
}

namespace {

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

}  // namespace

void AppendHeader(std::string* out, uint32_t section_count) {
  out->append(kMagic, sizeof kMagic);
  AppendU32(out, kFormatVersion);
  AppendU32(out, kEndianTag);
  AppendU32(out, section_count);
  AppendU32(out, 0);  // reserved
}

void AppendSection(std::string* out, SectionId id, const Sink& payload) {
  AppendU32(out, static_cast<uint32_t>(id));
  AppendU32(out, 0);  // reserved
  AppendU64(out, payload.size());
  AppendU64(out, Checksum64(std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(payload.data().data()),
                payload.size())));
  out->append(payload.data());
}

Result<std::vector<SectionView>> ParseContainer(
    std::span<const uint8_t> file) {
  constexpr size_t kHeaderSize = sizeof kMagic + 4 * sizeof(uint32_t);
  if (file.size() < kHeaderSize) {
    return Status::DataLoss(
        StrCat("snapshot: file too small for header (", file.size(),
               " bytes)"));
  }
  if (std::memcmp(file.data(), kMagic, sizeof kMagic) != 0) {
    return Status::DataLoss("snapshot: bad magic");
  }
  size_t pos = sizeof kMagic;
  auto read_u32 = [&]() {
    uint32_t v;
    std::memcpy(&v, file.data() + pos, sizeof v);
    pos += sizeof v;
    return v;
  };
  uint32_t version = read_u32();
  uint32_t endian = read_u32();
  // Endianness first: on a foreign-endian file the version field is
  // byte-swapped too, and "unsupported version 16777216" would misname
  // the real problem.
  if (endian != kEndianTag) {
    return Status::DataLoss("snapshot: foreign byte order");
  }
  if (version != kFormatVersion) {
    return Status::DataLoss(StrCat("snapshot: unsupported format version ",
                                   version, " (this build reads version ",
                                   kFormatVersion, ")"));
  }
  uint32_t section_count = read_u32();
  read_u32();  // reserved

  // The count is untrusted: bound it by what the remaining bytes could
  // hold before sizing any allocation by it.
  constexpr size_t kSectionHeader = 2 * sizeof(uint32_t) + 2 * sizeof(uint64_t);
  if (section_count > (file.size() - pos) / kSectionHeader) {
    return Status::DataLoss(StrCat("snapshot: section count ", section_count,
                                   " exceeds what the remaining ",
                                   file.size() - pos, " bytes can hold"));
  }
  std::vector<SectionView> sections;
  sections.reserve(section_count);
  for (uint32_t s = 0; s < section_count; ++s) {
    if (file.size() - pos < kSectionHeader) {
      return Status::DataLoss(
          StrCat("snapshot: truncated section header at byte ", pos));
    }
    uint32_t id = read_u32();
    read_u32();  // reserved
    uint64_t len;
    std::memcpy(&len, file.data() + pos, sizeof len);
    pos += sizeof len;
    uint64_t checksum;
    std::memcpy(&checksum, file.data() + pos, sizeof checksum);
    pos += sizeof checksum;
    if (len > file.size() - pos) {
      return Status::DataLoss(StrCat("snapshot: section '", SectionIdName(id),
                                     "' truncated: payload of ", len,
                                     " bytes exceeds the ", file.size() - pos,
                                     " remaining"));
    }
    std::span<const uint8_t> payload =
        file.subspan(pos, static_cast<size_t>(len));
    pos += static_cast<size_t>(len);
    if (Checksum64(payload) != checksum) {
      return Status::DataLoss(StrCat("snapshot: section '", SectionIdName(id),
                                     "' checksum mismatch"));
    }
    sections.push_back(SectionView{id, payload});
  }
  if (pos != file.size()) {
    return Status::DataLoss(StrCat("snapshot: ", file.size() - pos,
                                   " trailing bytes after last section"));
  }
  return sections;
}

}  // namespace snap
}  // namespace ocdx
