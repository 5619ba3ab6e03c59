#include "base/value.h"

#include <algorithm>

#include "util/str.h"

namespace ocdx {

std::pair<WitnessRef, std::span<Value>> Universe::AllocateWitness(size_t n) {
  CheckWrite();
  if (n == 0) return {WitnessRef{}, std::span<Value>{}};
  if (witness_chunks_.empty() || witness_left_ < n) {
    // Chunked like ValueArena (base/arena.h): chunks are never
    // reallocated or freed, so previously resolved spans stay valid.
    // A vector resized within its reserved capacity never moves. The new
    // chunk's base is the current logical size — the abandoned tail of
    // the previous chunk was never handed out, so offsets stay dense.
    // On an overlay witness_size_ starts at the base's arena size, so
    // overlay offsets continue the base's logical offset space.
    static constexpr size_t kChunk = 4096;
    size_t cap = std::max(n, kChunk);
    witness_chunks_.emplace_back();
    witness_chunks_.back().data.reserve(cap);
    witness_chunks_.back().base = witness_size_;
    witness_left_ = cap;
  }
  WitnessChunk& chunk = witness_chunks_.back();
  size_t start = chunk.data.size();
  chunk.data.resize(start + n);
  witness_left_ -= n;
  WitnessRef ref{chunk.base + start, static_cast<uint32_t>(n)};
  witness_size_ += n;
  return {ref, std::span<Value>{chunk.data.data() + start, n}};
}

std::span<const Value> Universe::WitnessOf(WitnessRef ref) const {
  CheckRead();
  if (ref.len == 0) return {};
  // Offsets below the overlay boundary belong to the base's arena (a
  // witness never spans the boundary: it was allocated in one piece by
  // whichever universe owned the allocation).
  if (base_ != nullptr && ref.offset < base_witness_) {
    return base_->WitnessOf(ref);
  }
  // Binary search for the chunk whose [base, base + size) range holds the
  // offset: chunks are in ascending base order by construction. A witness
  // never spans chunks (it was allocated in one piece).
  auto it = std::upper_bound(
      witness_chunks_.begin(), witness_chunks_.end(), ref.offset,
      [](uint64_t offset, const WitnessChunk& c) { return offset < c.base; });
  assert(it != witness_chunks_.begin() && "WitnessRef from another universe");
  const WitnessChunk& chunk = *(it - 1);
  size_t pos = static_cast<size_t>(ref.offset - chunk.base);
  assert(pos + ref.len <= chunk.data.size() && "WitnessRef out of bounds");
  return {chunk.data.data() + pos, ref.len};
}

void Universe::AppendWitnessValues(std::vector<Value>* out) const {
  CheckRead();
  out->reserve(out->size() + witness_size_);
  if (base_ != nullptr) base_->AppendWitnessValues(out);
  for (const WitnessChunk& chunk : witness_chunks_) {
    out->insert(out->end(), chunk.data.begin(), chunk.data.end());
  }
}

std::unique_ptr<Universe> Universe::NewOverlay() const {
  assert(read_only() &&
         "NewOverlay() needs a frozen or shared base: call Freeze() or "
         "hold a ScopedReadShare before minting overlays");
  auto out = std::make_unique<Universe>();
  out->base_ = this;
  out->base_consts_ = static_cast<uint32_t>(num_consts());
  out->base_nulls_ = static_cast<uint32_t>(num_nulls());
  out->base_witness_ = witness_size();
  out->witness_size_ = witness_size();
  return out;
}

std::string Universe::Describe(Value v) const {
  CheckRead();
  if (!v.IsValid()) return "<invalid>";
  if (v.IsConst()) return std::string(ConstName(v.id()));
  const NullInfo& info = null_info(v);
  if (!info.label.empty()) return StrCat("_", info.label);
  // Chase nulls skip eager label materialization (it is measurable chase
  // time); synthesize a readable, unique name from the justification.
  if (!info.var.empty()) return StrCat("_", info.var, "_n", v.id());
  return StrCat("_N", v.id());
}

}  // namespace ocdx
