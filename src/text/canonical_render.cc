#include "text/canonical_render.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "base/annotation.h"
#include "base/dedup.h"

namespace ocdx {

namespace {

// Texts appended back to back into one buffer, then ranked by their
// bytes: equal texts share a rank, and rank order is byte order.
class RankedTexts {
 public:
  /// The buffer the next text is appended to; Commit() closes it.
  std::string& buf() { return buf_; }

  /// Closes the text appended since the last Commit; texts are numbered
  /// from 0 in commit order.
  void Commit() { ends_.push_back(buf_.size()); }

  std::string_view text(uint32_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(buf_).substr(begin, ends_[id] - begin);
  }

  /// Ranks every committed text; rank() and ranked() are valid after.
  void Rank() {
    std::vector<std::pair<std::string_view, uint32_t>> order(ends_.size());
    for (uint32_t id = 0; id < order.size(); ++id) order[id] = {text(id), id};
    std::sort(order.begin(), order.end());
    rank_.resize(order.size());
    std::string_view prev;
    for (const auto& [t, id] : order) {
      if (by_rank_.empty() || t != prev) {
        if (!by_rank_.empty() && t.starts_with(prev) &&
            static_cast<unsigned char>(t[prev.size()]) <= ',') {
          separator_safe_ = false;
        }
        by_rank_.push_back(id);
        prev = t;
      }
      rank_[id] = static_cast<uint32_t>(by_rank_.size() - 1);
    }
  }

  uint32_t rank(uint32_t id) const { return rank_[id]; }
  std::string_view ranked(size_t rank) const { return text(by_rank_[rank]); }

  /// The header's premise: no ranked text is a proper prefix of another
  /// whose next byte is at or below ','. Then a value's rank orders the
  /// rendered lines it appears in exactly as its text does.
  bool separator_safe() const { return separator_safe_; }

 private:
  std::string buf_;
  std::vector<size_t> ends_;
  std::vector<uint32_t> rank_;
  std::vector<uint32_t> by_rank_;
  bool separator_safe_ = true;
};

// Dense ids for the distinct values of one rendering, in first-seen
// order, over a flat open-addressed table (no node per value).
class ValueIds {
 public:
  /// The id of `v`, and whether this call assigned it.
  std::pair<uint32_t, bool> Insert(Value v) {
    const size_t hash = ValueHash()(v);
    uint32_t id =
        index_.Find(hash, [&](uint32_t i) { return values_[i] == v; });
    if (id != DedupIndex::kNone) return {id, false};
    id = static_cast<uint32_t>(values_.size());
    values_.push_back(v);
    index_.Insert(hash, id);
    return {id, true};
  }

 private:
  DedupIndex index_;
  std::vector<Value> values_;
};

// The rendered text of every distinct value of one rendering, each
// rendered once; a value's text id is its ValueIds id. The invalid Value
// stands for the `_` of an empty marker.
class ValueTexts {
 public:
  ValueTexts(const Universe& u, const NullNames& names)
      : u_(u), names_(names) {}

  /// The text id of `v`, rendering it on first sight.
  uint32_t Id(Value v) {
    auto [id, fresh] = ids_.Insert(v);
    if (fresh) Render(v);
    return id;
  }

  RankedTexts& texts() { return texts_; }

 private:
  void Render(Value v) {
    std::string& b = texts_.buf();
    if (!v.IsValid()) {
      b += '_';
    } else if (v.IsConst()) {
      b += '\'';
      b += u_.ConstName(v.id());
      b += '\'';
    } else if (auto it = names_.find(v); it != names_.end()) {
      b += it->second;
    } else {
      b += u_.Describe(v);
    }
    texts_.Commit();
  }

  const Universe& u_;
  const NullNames& names_;
  ValueIds ids_;
  RankedTexts texts_;
};

// The print order of `rows` rows keyed `width` ranks each (row r at
// keys[r * width]): by rank tuple when rank order is line order, else by
// the line `append_row` renders.
template <typename AppendRow>
std::vector<uint32_t> SortRows(std::span<const uint32_t> keys, size_t rows,
                               size_t width, bool by_rank,
                               const AppendRow& append_row) {
  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0);
  if (by_rank) {
    const uint32_t max_key =
        keys.empty() ? 0 : *std::max_element(keys.begin(), keys.end());
    const size_t bits = std::bit_width(max_key);
    if (bits * width <= 64) {
      std::vector<std::pair<uint64_t, uint32_t>> packed(rows);
      for (uint32_t r = 0; r < rows; ++r) {
        uint64_t k = 0;
        for (size_t c = 0; c < width; ++c) k = k << bits | keys[r * width + c];
        packed[r] = {k, r};
      }
      std::sort(packed.begin(), packed.end());
      for (uint32_t r = 0; r < rows; ++r) order[r] = packed[r].second;
      return order;
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const uint32_t* ka = keys.data() + size_t{a} * width;
      const uint32_t* kb = keys.data() + size_t{b} * width;
      return std::lexicographical_compare(ka, ka + width, kb, kb + width);
    });
    return order;
  }
  std::vector<std::string> lines(rows);
  for (size_t r = 0; r < rows; ++r) append_row(r, &lines[r]);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return lines[a] < lines[b]; });
  return order;
}

// Appends `n` ranked texts joined by ", ".
void AppendValues(const RankedTexts& texts, const uint32_t* ranks, size_t n,
                  std::string* out) {
  for (size_t p = 0; p < n; ++p) {
    if (p > 0) out->append(", ");
    out->append(texts.ranked(ranks[p]));
  }
}

// One annotated relation keyed for sorting: `arity` value slots (text
// ids, then ranks) and the annotation's id (then rank) last. An empty
// marker keys slot 0 on the `_` text and leaves the rest 0.
struct KeyedRelation {
  const std::string* name = nullptr;
  const AnnotatedRelation* rel = nullptr;
  std::vector<uint32_t> keys;
  std::vector<AnnRef> anns;  ///< Distinct annotations, by id.
  RankedTexts ann_texts;     ///< Their `cl,op` texts, same ids.
};

}  // namespace

NullNames CanonicalNullNames(const AnnotatedInstance& inst,
                             const Universe& u) {
  std::vector<Value> nulls;
  for (const auto& [name, rel] : inst.relations()) {
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      for (Value v : t.values) {
        if (v.IsNull()) nulls.push_back(v);
      }
    }
  }
  std::sort(nulls.begin(), nulls.end());
  nulls.erase(std::unique(nulls.begin(), nulls.end()), nulls.end());

  // Justification key of a chase null; its witness is a run of
  // `witness`, holding text ids and then Describe-text ranks, which
  // compare element-wise exactly as the texts do.
  struct Justified {
    int32_t std_index;
    uint32_t begin, end;
    const std::string* var;
    Value null;
  };
  NullNames names;
  names.reserve(nulls.size());
  std::vector<Justified> justified;
  std::vector<uint32_t> witness;
  ValueIds witness_ids;
  RankedTexts witness_texts;
  for (Value v : nulls) {
    const NullInfo& info = u.null_info(v);
    if (info.std_index < 0) {
      names.emplace(v, u.Describe(v));
      continue;
    }
    const auto begin = static_cast<uint32_t>(witness.size());
    for (Value w : u.WitnessOf(info.witness)) {
      auto [id, fresh] = witness_ids.Insert(w);
      if (fresh) {
        witness_texts.buf() += u.Describe(w);
        witness_texts.Commit();
      }
      witness.push_back(id);
    }
    justified.push_back({info.std_index, begin,
                         static_cast<uint32_t>(witness.size()), &info.var, v});
  }
  witness_texts.Rank();
  for (uint32_t& w : witness) w = witness_texts.rank(w);
  std::sort(justified.begin(), justified.end(),
            [&](const Justified& a, const Justified& b) {
              if (a.std_index != b.std_index) return a.std_index < b.std_index;
              if (auto c = std::lexicographical_compare_three_way(
                      witness.begin() + a.begin, witness.begin() + a.end,
                      witness.begin() + b.begin, witness.begin() + b.end);
                  c != 0) {
                return c < 0;
              }
              if (int c = a.var->compare(*b.var); c != 0) return c < 0;
              return a.null < b.null;
            });
  for (size_t i = 0; i < justified.size(); ++i) {
    names.emplace(justified[i].null, "@" + std::to_string(i + 1));
  }
  return names;
}

void RenderAnnotatedInstance(const AnnotatedInstance& inst, const Universe& u,
                             const NullNames& names, std::string_view indent,
                             std::string* out) {
  ValueTexts values(u, names);
  std::vector<KeyedRelation> rels;
  rels.reserve(inst.relations().size());
  for (const auto& [name, rel] : inst.relations()) {
    KeyedRelation& r = rels.emplace_back();
    r.name = &name;
    r.rel = &rel;
    const size_t width = rel.arity() + 1;
    r.keys.resize(rel.size() * width);
    for (size_t i = 0; i < rel.size(); ++i) {
      const AnnotatedTupleRef t = rel.row(i);
      uint32_t* key = r.keys.data() + i * width;
      if (t.IsEmptyMarker()) key[0] = values.Id(Value());
      for (size_t p = 0; p < t.values.size(); ++p) {
        key[p] = values.Id(t.values[p]);
      }
      // A relation holds a handful of annotations: scan, don't hash.
      auto seen = std::find(r.anns.begin(), r.anns.end(), t.ann);
      if (seen == r.anns.end()) {
        r.anns.push_back(t.ann);
        r.ann_texts.buf() += AnnVecToString(t.ann);
        r.ann_texts.Commit();
        seen = r.anns.end() - 1;
      }
      key[width - 1] = static_cast<uint32_t>(seen - r.anns.begin());
    }
  }
  RankedTexts& texts = values.texts();
  texts.Rank();

  for (KeyedRelation& r : rels) {
    const size_t width = r.rel->arity() + 1;
    const size_t rows = r.rel->size();
    r.ann_texts.Rank();
    for (size_t i = 0; i < r.keys.size(); i += width) {
      for (size_t p = 0; p + 1 < width; ++p) {
        r.keys[i + p] = texts.rank(r.keys[i + p]);
      }
      r.keys[i + width - 1] = r.ann_texts.rank(r.keys[i + width - 1]);
    }
    auto append_row = [&](size_t row, std::string* dst) {
      const uint32_t* key = r.keys.data() + row * width;
      dst->push_back('(');
      AppendValues(texts, key, r.rel->row(row).IsEmptyMarker() ? 1 : width - 1,
                   dst);
      dst->append(")^(");
      dst->append(r.ann_texts.ranked(key[width - 1]));
      dst->push_back(')');
    };
    std::vector<uint32_t> order =
        SortRows(r.keys, rows, width, texts.separator_safe(), append_row);
    out->append(indent);
    out->append(*r.name);
    out->append(rows == 0 ? " = {" : " = { ");
    for (size_t j = 0; j < rows; ++j) {
      if (j > 0) out->append(", ");
      append_row(order[j], out);
    }
    out->append(" }\n");
  }
}

void RenderRelation(const Relation& rel, const Universe& u, std::string* out) {
  const NullNames no_names;
  ValueTexts values(u, no_names);
  const size_t width = rel.arity();
  const size_t rows = rel.size();
  std::vector<uint32_t> keys(rows * width);
  for (size_t i = 0; i < rows; ++i) {
    const TupleRef t = rel.row(i);
    for (size_t p = 0; p < width; ++p) keys[i * width + p] = values.Id(t[p]);
  }
  RankedTexts& texts = values.texts();
  texts.Rank();
  for (uint32_t& k : keys) k = texts.rank(k);
  auto append_row = [&](size_t row, std::string* dst) {
    dst->push_back('(');
    AppendValues(texts, keys.data() + row * width, width, dst);
    dst->push_back(')');
  };
  std::vector<uint32_t> order =
      SortRows(keys, rows, width, texts.separator_safe(), append_row);
  out->append(rows == 0 ? "{" : "{ ");
  for (size_t j = 0; j < rows; ++j) {
    if (j > 0) out->append(", ");
    append_row(order[j], out);
  }
  out->append(" }");
}

}  // namespace ocdx
