#ifndef DEXA_TYPES_STRUCTURAL_TYPE_H_
#define DEXA_TYPES_STRUCTURAL_TYPE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace dexa {

/// Kinds of structural (data) types a module parameter can carry, `str(i)`
/// in the paper's data model (Section 2).
enum class TypeKind {
  kString,
  kInteger,
  kDouble,
  kBoolean,
  kList,
  kRecord,
};

const char* TypeKindName(TypeKind kind);

/// An immutable structural type: a primitive, a homogeneous list, or a
/// record with named, ordered fields. Value-semantic (cheap shared-state
/// copies).
class StructuralType {
 public:
  /// Primitives.
  static StructuralType String();
  static StructuralType Integer();
  static StructuralType Double();
  static StructuralType Boolean();
  /// List with elements of `element` type.
  static StructuralType List(StructuralType element);
  /// Record with the given ordered fields.
  static StructuralType Record(
      std::vector<std::pair<std::string, StructuralType>> fields);

  TypeKind kind() const { return rep_->kind; }
  bool is_primitive() const {
    return rep_->kind != TypeKind::kList && rep_->kind != TypeKind::kRecord;
  }

  /// Element type; requires kind() == kList.
  const StructuralType& element() const;

  /// Record fields; requires kind() == kRecord.
  const std::vector<std::pair<std::string, StructuralType>>& fields() const;

  /// Structural equality (deep).
  bool Equals(const StructuralType& other) const;

  /// Structural compatibility as used when selecting pool instances for a
  /// parameter (Section 3.2: "the data structure of the instances selected
  /// need to be compatible with the data structure of the input parameter").
  /// Currently compatibility is structural equality; kept as a distinct
  /// entry point because callers depend on the *notion*, not the relation.
  bool IsCompatibleWith(const StructuralType& other) const {
    return Equals(other);
  }

  /// "String", "List<String>", "Record{id:String, mass:Double}".
  std::string ToString() const;

 private:
  struct Rep {
    TypeKind kind;
    std::shared_ptr<const StructuralType> element;  // kList
    std::vector<std::pair<std::string, StructuralType>> fields;  // kRecord
  };
  explicit StructuralType(std::shared_ptr<const Rep> rep)
      : rep_(std::move(rep)) {}

  static StructuralType MakePrimitive(TypeKind kind);

  std::shared_ptr<const Rep> rep_;
};

inline bool operator==(const StructuralType& a, const StructuralType& b) {
  return a.Equals(b);
}
inline bool operator!=(const StructuralType& a, const StructuralType& b) {
  return !a.Equals(b);
}

/// Parses the ToString() rendering back into a type ("String",
/// "List<Double>", "Record{id:String, mass:Double}"). Round-trips
/// ToString() for all types. More than kMaxNestingDepth (common/json.h)
/// open List and Record types is kParseError.
[[nodiscard]] Result<StructuralType> ParseStructuralType(const std::string& text);

}  // namespace dexa

#endif  // DEXA_TYPES_STRUCTURAL_TYPE_H_
