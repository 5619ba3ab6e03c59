#include "mapping/mapping.h"

#include <algorithm>
#include <set>

#include "util/str.h"

namespace ocdx {

namespace {

void CollectTermVarsRec(const Term& t, std::set<std::string>* out) {
  if (t.IsVar()) out->insert(t.name);
  for (const Term& a : t.args) CollectTermVarsRec(a, out);
}

bool TermHasFunction(const Term& t) {
  if (t.IsFunc()) return true;
  for (const Term& a : t.args) {
    if (TermHasFunction(a)) return true;
  }
  return false;
}

}  // namespace

std::string HeadAtom::ToString(const Universe& u) const {
  std::vector<std::string> parts;
  parts.reserve(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    parts.push_back(StrCat(terms[i].ToString(u), "^", AnnToString(ann[i])));
  }
  return StrCat(rel, "(", Join(parts, ", "), ")");
}

std::vector<std::string> AnnotatedStd::ExistentialVars() const {
  std::set<std::string> body_vars;
  for (const std::string& v : BodyVars()) body_vars.insert(v);
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const HeadAtom& atom : head) {
    std::set<std::string> head_vars;
    for (const Term& t : atom.terms) CollectTermVarsRec(t, &head_vars);
    for (const std::string& v : head_vars) {
      if (!body_vars.count(v) && !seen.count(v)) {
        seen.insert(v);
        out.push_back(v);
      }
    }
  }
  return out;
}

size_t AnnotatedStd::MaxOpenPerAtom() const {
  size_t m = 0;
  for (const HeadAtom& atom : head) m = std::max(m, CountOpen(atom.ann));
  return m;
}

size_t AnnotatedStd::MaxClosedPerAtom() const {
  size_t m = 0;
  for (const HeadAtom& atom : head) m = std::max(m, CountClosed(atom.ann));
  return m;
}

bool AnnotatedStd::IsSkolemized() const {
  for (const HeadAtom& atom : head) {
    for (const Term& t : atom.terms) {
      if (TermHasFunction(t)) return true;
    }
  }
  return !FunctionsIn(body).empty();
}

std::string AnnotatedStd::ToString(const Universe& u) const {
  std::vector<std::string> parts;
  parts.reserve(head.size());
  for (const HeadAtom& atom : head) parts.push_back(atom.ToString(u));
  return StrCat(Join(parts, ", "), " :- ", body->ToString(u));
}

size_t Mapping::MaxOpenPerAtom() const {
  size_t m = 0;
  for (const AnnotatedStd& s : stds_) m = std::max(m, s.MaxOpenPerAtom());
  return m;
}

size_t Mapping::MaxClosedPerAtom() const {
  size_t m = 0;
  for (const AnnotatedStd& s : stds_) m = std::max(m, s.MaxClosedPerAtom());
  return m;
}

bool Mapping::HasCQBodies() const {
  for (const AnnotatedStd& s : stds_) {
    if (!IsConjunctiveQuery(s.body)) return false;
  }
  return true;
}

bool Mapping::HasMonotoneBodies() const {
  for (const AnnotatedStd& s : stds_) {
    if (!IsMonotoneSyntactic(s.body)) return false;
  }
  return true;
}

bool Mapping::IsSkolemized() const {
  for (const AnnotatedStd& s : stds_) {
    if (s.IsSkolemized()) return true;
  }
  return false;
}

Mapping Mapping::WithUniformAnnotation(Ann uniform) const {
  Mapping out(source_, target_);
  for (const AnnotatedStd& s : stds_) {
    AnnotatedStd t = s;
    for (HeadAtom& atom : t.head) {
      atom.ann.assign(atom.ann.size(), uniform);
    }
    out.AddStd(std::move(t));
  }
  return out;
}

Status Mapping::Validate(bool allow_functions) const {
  for (size_t i = 0; i < stds_.size(); ++i) {
    const AnnotatedStd& s = stds_[i];
    if (s.head.empty()) {
      return Status::InvalidArgument(StrCat("STD #", i, " has an empty head"));
    }
    if (!allow_functions && s.IsSkolemized()) {
      return Status::InvalidArgument(
          StrCat("STD #", i,
                 " uses function terms; only SkSTD mappings may (pass "
                 "allow_functions)"));
    }
    // Body relations must be source relations of matching arity.
    for (const std::string& rel : RelationsIn(s.body)) {
      const RelationDecl* decl = source_.Find(rel);
      if (decl == nullptr) {
        return Status::NotFound(StrCat("STD #", i, " body uses relation '",
                                       rel,
                                       "' not declared in the source schema"));
      }
    }
    // Head atoms must be target relations of matching arity, with a
    // same-sized annotation vector, and all head variables must be body
    // variables or existential (trivially true; existential = the rest).
    std::set<std::string> body_vars;
    for (const std::string& v : s.BodyVars()) body_vars.insert(v);
    for (const HeadAtom& atom : s.head) {
      const RelationDecl* decl = target_.Find(atom.rel);
      if (decl == nullptr) {
        return Status::NotFound(StrCat("STD #", i, " head uses relation '",
                                       atom.rel,
                                       "' not declared in the target schema"));
      }
      if (decl->arity() != atom.arity()) {
        return Status::InvalidArgument(
            StrCat("STD #", i, " head atom ", atom.rel, "/", atom.arity(),
                   " does not match declared arity ", decl->arity()));
      }
      if (atom.ann.size() != atom.terms.size()) {
        return Status::InvalidArgument(
            StrCat("STD #", i, " head atom ", atom.rel,
                   " has a mis-sized annotation vector"));
      }
    }
  }
  return Status::OK();
}

std::string Mapping::ToString(const Universe& u) const {
  std::string out;
  for (const AnnotatedStd& s : stds_) {
    out += s.ToString(u);
    out += ";\n";
  }
  return out;
}

std::vector<Value> DistinguishedConstants(
    std::initializer_list<std::vector<Value>> domains,
    std::initializer_list<const Mapping*> mappings) {
  std::set<Value> fixed;
  for (const std::vector<Value>& domain : domains) {
    for (Value v : domain) {
      if (v.IsConst()) fixed.insert(v);
    }
  }
  for (const Mapping* m : mappings) {
    for (const AnnotatedStd& std_ : m->stds()) {
      for (Value v : ConstantsIn(std_.body)) fixed.insert(v);
      for (const HeadAtom& atom : std_.head) {
        for (const Term& t : atom.terms) {
          if (t.IsConst()) fixed.insert(t.constant);
        }
      }
    }
  }
  return std::vector<Value>(fixed.begin(), fixed.end());
}

}  // namespace ocdx
