// Database instances, plain and annotated.

#ifndef OCDX_BASE_INSTANCE_H_
#define OCDX_BASE_INSTANCE_H_

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "base/relation.h"
#include "base/schema.h"
#include "base/value.h"

namespace ocdx {

/// A plain instance: named relations over Const u Null.
///
/// Relations are stored in a std::map so iteration order (and printing)
/// is deterministic by relation name.
class Instance {
 public:
  Instance() = default;

  /// Returns the relation, creating it (empty, with this arity) if absent.
  Relation& GetOrCreate(const std::string& name, size_t arity);

  /// Returns the relation or nullptr.
  const Relation* Find(const std::string& name) const;
  Relation* FindMutable(const std::string& name);

  /// Adds a tuple, creating the relation with the tuple's arity if needed.
  /// Returns true iff newly inserted.
  bool Add(const std::string& name, TupleRef t);
  bool Add(const std::string& name, std::initializer_list<Value> t) {
    return Add(name, TupleRef(t.begin(), t.size()));
  }

  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

  /// Freezes every relation (Relation::Freeze) for concurrent readers.
  /// The relation map itself must not change afterwards either.
  void Freeze() {
    for (auto& [name, rel] : relations_) rel.Freeze();
  }

  /// Total number of tuples across relations.
  size_t TotalTuples() const;

  /// The active domain: all values occurring in any tuple (deduplicated,
  /// sorted by raw id for determinism).
  std::vector<Value> ActiveDomain() const;

  /// All *nulls* occurring in the instance.
  std::vector<Value> Nulls() const;

  /// All *constants* occurring in the instance.
  std::vector<Value> Constants() const;

  /// True iff no null occurs (an instance "over Const").
  bool IsGround() const;

  /// Relation-wise subset: every declared relation's tuples appear in
  /// `other`. Relations absent here are treated as empty.
  bool SubsetOf(const Instance& other) const;

  /// Equality compares all (possibly empty) relations by tuple sets; an
  /// absent relation equals an empty one.
  friend bool operator==(const Instance& a, const Instance& b);

  std::string ToString(const Universe& u) const;

 private:
  std::map<std::string, Relation> relations_;
};

/// An annotated instance (Section 3): named annotated relations.
class AnnotatedInstance {
 public:
  AnnotatedInstance() = default;

  AnnotatedRelation& GetOrCreate(const std::string& name, size_t arity);
  const AnnotatedRelation* Find(const std::string& name) const;

  bool Add(const std::string& name, const AnnotatedTupleRef& t);

  /// Convenience: add a proper tuple with its annotation.
  bool Add(const std::string& name, TupleRef t, AnnRef ann);
  bool Add(const std::string& name, std::initializer_list<Value> t,
           AnnRef ann) {
    return Add(name, TupleRef(t.begin(), t.size()), ann);
  }
  bool Add(const std::string& name, std::initializer_list<Value> t,
           std::initializer_list<Ann> ann) {
    return Add(name, TupleRef(t.begin(), t.size()),
               AnnRef(ann.begin(), ann.size()));
  }
  bool Add(const std::string& name, TupleRef t,
           std::initializer_list<Ann> ann) {
    return Add(name, t, AnnRef(ann.begin(), ann.size()));
  }

  const std::map<std::string, AnnotatedRelation>& relations() const {
    return relations_;
  }

  /// As Instance::Freeze.
  void Freeze() {
    for (auto& [name, rel] : relations_) rel.Freeze();
  }

  /// rel(T): the pure relational part (drops annotations and markers).
  Instance RelPart() const;

  size_t TotalTuples() const;

  /// All nulls occurring in proper tuples (deduplicated, sorted).
  std::vector<Value> Nulls() const;

  /// The active domain of proper tuples.
  std::vector<Value> ActiveDomain() const;

  /// True iff every annotation in every tuple is open.
  bool IsAllOpen() const;

  /// True iff every annotation in every tuple is closed.
  bool IsAllClosed() const;

  friend bool operator==(const AnnotatedInstance& a,
                         const AnnotatedInstance& b);

  std::string ToString(const Universe& u) const;

 private:
  std::map<std::string, AnnotatedRelation> relations_;
};

/// Lifts a plain instance to an annotated one with a uniform annotation.
AnnotatedInstance Annotate(const Instance& inst, Ann uniform);

}  // namespace ocdx

#endif  // OCDX_BASE_INSTANCE_H_
