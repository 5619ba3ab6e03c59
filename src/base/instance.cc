#include "base/instance.h"

#include <algorithm>
#include <set>

#include "util/str.h"

namespace ocdx {

namespace {

// Inserts the values of `t` into `dst` (a sorted unique accumulator).
void CollectValues(TupleRef t, std::set<Value>* dst) {
  for (Value v : t) dst->insert(v);
}

}  // namespace

Relation& Instance::GetOrCreate(const std::string& name, size_t arity) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    it = relations_.emplace(name, Relation(arity)).first;
  }
  return it->second;
}

const Relation* Instance::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Relation* Instance::FindMutable(const std::string& name) {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

bool Instance::Add(const std::string& name, TupleRef t) {
  return GetOrCreate(name, t.size()).Add(t);
}

size_t Instance::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.size();
  return n;
}

std::vector<Value> Instance::ActiveDomain() const {
  std::set<Value> acc;
  for (const auto& [name, rel] : relations_) {
    for (TupleRef t : rel.tuples()) CollectValues(t, &acc);
  }
  return std::vector<Value>(acc.begin(), acc.end());
}

std::vector<Value> Instance::Nulls() const {
  std::vector<Value> out;
  for (Value v : ActiveDomain()) {
    if (v.IsNull()) out.push_back(v);
  }
  return out;
}

std::vector<Value> Instance::Constants() const {
  std::vector<Value> out;
  for (Value v : ActiveDomain()) {
    if (v.IsConst()) out.push_back(v);
  }
  return out;
}

bool Instance::IsGround() const { return Nulls().empty(); }

bool Instance::SubsetOf(const Instance& other) const {
  for (const auto& [name, rel] : relations_) {
    if (rel.empty()) continue;
    const Relation* orel = other.Find(name);
    if (orel == nullptr || !rel.SubsetOf(*orel)) return false;
  }
  return true;
}

bool operator==(const Instance& a, const Instance& b) {
  return a.SubsetOf(b) && b.SubsetOf(a);
}

std::string Instance::ToString(const Universe& u) const {
  std::string out;
  for (const auto& [name, rel] : relations_) {
    out += name;
    out += " = {";
    std::vector<Tuple> sorted = rel.SortedTuples();
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0) out += ", ";
      out += TupleToString(sorted[i], u);
    }
    out += "}\n";
  }
  return out;
}

AnnotatedRelation& AnnotatedInstance::GetOrCreate(const std::string& name,
                                                  size_t arity) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    it = relations_.emplace(name, AnnotatedRelation(arity)).first;
  }
  return it->second;
}

const AnnotatedRelation* AnnotatedInstance::Find(
    const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

bool AnnotatedInstance::Add(const std::string& name,
                            const AnnotatedTupleRef& t) {
  return GetOrCreate(name, t.arity()).Add(t);
}

bool AnnotatedInstance::Add(const std::string& name, TupleRef t, AnnRef ann) {
  return GetOrCreate(name, ann.size()).Add(AnnotatedTupleRef{t, ann});
}

Instance AnnotatedInstance::RelPart() const {
  Instance out;
  for (const auto& [name, rel] : relations_) {
    out.GetOrCreate(name, rel.arity()) = rel.RelPart();
  }
  return out;
}

size_t AnnotatedInstance::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.size();
  return n;
}

std::vector<Value> AnnotatedInstance::Nulls() const {
  std::set<Value> acc;
  for (const auto& [name, rel] : relations_) {
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      for (Value v : t.values) {
        if (v.IsNull()) acc.insert(v);
      }
    }
  }
  return std::vector<Value>(acc.begin(), acc.end());
}

std::vector<Value> AnnotatedInstance::ActiveDomain() const {
  std::set<Value> acc;
  for (const auto& [name, rel] : relations_) {
    for (const AnnotatedTupleRef& t : rel.tuples()) CollectValues(t.values, &acc);
  }
  return std::vector<Value>(acc.begin(), acc.end());
}

bool AnnotatedInstance::IsAllOpen() const {
  for (const auto& [name, rel] : relations_) {
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      if (!ocdx::IsAllOpen(t.ann)) return false;
    }
  }
  return true;
}

bool AnnotatedInstance::IsAllClosed() const {
  for (const auto& [name, rel] : relations_) {
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      if (!ocdx::IsAllClosed(t.ann)) return false;
    }
  }
  return true;
}

bool operator==(const AnnotatedInstance& a, const AnnotatedInstance& b) {
  auto contains = [](const AnnotatedInstance& x, const AnnotatedInstance& y) {
    for (const auto& [name, rel] : x.relations_) {
      if (rel.empty()) continue;
      const AnnotatedRelation* other = y.Find(name);
      if (other == nullptr) return false;
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        if (!other->Contains(t)) return false;
      }
    }
    return true;
  };
  return contains(a, b) && contains(b, a);
}

std::string AnnotatedInstance::ToString(const Universe& u) const {
  std::string out;
  for (const auto& [name, rel] : relations_) {
    out += name;
    out += " = {";
    for (size_t i = 0; i < rel.tuples().size(); ++i) {
      if (i > 0) out += ", ";
      out += AnnotatedTupleToString(rel.tuples()[i], u);
    }
    out += "}\n";
  }
  return out;
}

AnnotatedInstance Annotate(const Instance& inst, Ann uniform) {
  AnnotatedInstance out;
  for (const auto& [name, rel] : inst.relations()) {
    AnnotatedRelation& dst = out.GetOrCreate(name, rel.arity());
    const AnnVec ann(rel.arity(), uniform);
    for (TupleRef t : rel.tuples()) {
      dst.Add(AnnotatedTupleRef{t, ann});
    }
  }
  return out;
}

}  // namespace ocdx
