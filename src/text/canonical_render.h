// Canonical rendering of chase results and certain answers: the text the
// `chase` and `certain` commands print (text/dx_driver.h) and the half of
// the determinism contract (docs/format.md) that is about bytes.
//
// The contract: relations print in name order, and inside a relation the
// rows print in the byte order of their whole rendered lines —
// `('a', @1)^(cl,op)` for an annotated row, `(_)^(op)` for an empty
// marker, `('a', 'b')` for a certain answer. Chase nulls print under
// justification-keyed names (`@1, @2, ...`, CanonicalNullNames), so the
// text never depends on minting order or on the engine mode.
//
// How it is built. Each distinct value is rendered once — a constant as
// `'name'` straight from Universe::ConstName, a null as its canonical
// name or Universe::Describe — into one buffer, and the distinct texts
// are ranked by their bytes. Each row becomes a fixed-width tuple of
// value ranks with the annotation's rank last; rows sort as rank tuples
// and are appended straight into the caller's output buffer. No string
// is built per row.
//
// \invariant Rank order is line order. Two lines agree up to the first
//   value where their ranks differ; there the line with the lower rank
//   sorts first unless its text is a proper prefix of the other's and
//   the byte that follows the prefix in the longer text is at or below
//   ',' — the byte that follows it in the shorter line is `,` or `)`.
//   Text the `.dx` lexer can produce never does that: quoted constants
//   hold no `'`, so no quoted text is a proper prefix of another, and a
//   null name is only ever extended by name bytes (digits, letters,
//   `_`), all above ','. The renderer checks the premise over the
//   adjacent pairs of the ranked texts (enough: in byte order, the texts
//   a text prefixes follow it in one run, and the first of the run has
//   the smallest byte after the prefix). Only values minted through the
//   library API can fail it, such as a constant holding `'` followed by a
//   low byte; then rows sort by their rendered lines instead, so the
//   output bytes are the contract's in every case. tests/render_test.cc
//   checks both paths against a line-sorting oracle.

#ifndef OCDX_TEXT_CANONICAL_RENDER_H_
#define OCDX_TEXT_CANONICAL_RENDER_H_

#include <string>
#include <string_view>
#include <unordered_map>

#include "base/instance.h"
#include "base/relation.h"
#include "base/value.h"

namespace ocdx {

/// The printed name of each null of one annotated instance.
using NullNames = std::unordered_map<Value, std::string, ValueHash>;

/// Names the nulls of `inst`. Chase-minted nulls get `@1, @2, ...` in the
/// order of their justification key (STD index, witness values compared
/// by their Universe::Describe text, existential variable) — a key both
/// engine modes agree on; nulls with equal keys (only equal labels in a
/// witness produce them) fall back to Value order. Hand-declared nulls
/// (std_index < 0) keep their Describe form (`_name`).
NullNames CanonicalNullNames(const AnnotatedInstance& inst, const Universe& u);

/// Appends one `<indent><name> = { row, ... }\n` line per relation of
/// `inst` (`= { }` for an empty relation). Nulls print under `names`,
/// falling back to Universe::Describe for nulls it does not name.
void RenderAnnotatedInstance(const AnnotatedInstance& inst, const Universe& u,
                             const NullNames& names, std::string_view indent,
                             std::string* out);

/// Appends `{ (v, ...), ... }` (or `{ }`) for a plain relation — a set of
/// certain answers. Nulls print as Universe::Describe.
void RenderRelation(const Relation& rel, const Universe& u, std::string* out);

}  // namespace ocdx

#endif  // OCDX_TEXT_CANONICAL_RENDER_H_
