#include "snap/format.h"

namespace ocdx {
namespace snap {

uint64_t Checksum64(std::span<const uint8_t> bytes) {
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t h = 0xcbf29ce484222325ULL;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  while (n >= sizeof(uint64_t)) {
    uint64_t lane = 0;
    for (size_t b = 0; b < sizeof lane; ++b) lane |= uint64_t{p[b]} << (8 * b);
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

}  // namespace snap
}  // namespace ocdx
