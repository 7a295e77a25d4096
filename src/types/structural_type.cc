#include "types/structural_type.h"

#include <cassert>
#include <string>

#include "common/json.h"

namespace dexa {

const char* TypeKindName(TypeKind kind) {
  switch (kind) {
    case TypeKind::kString:
      return "String";
    case TypeKind::kInteger:
      return "Integer";
    case TypeKind::kDouble:
      return "Double";
    case TypeKind::kBoolean:
      return "Boolean";
    case TypeKind::kList:
      return "List";
    case TypeKind::kRecord:
      return "Record";
  }
  return "Unknown";
}

StructuralType StructuralType::MakePrimitive(TypeKind kind) {
  auto rep = std::make_shared<Rep>();
  rep->kind = kind;
  return StructuralType(std::move(rep));
}

StructuralType StructuralType::String() {
  return MakePrimitive(TypeKind::kString);
}
StructuralType StructuralType::Integer() {
  return MakePrimitive(TypeKind::kInteger);
}
StructuralType StructuralType::Double() {
  return MakePrimitive(TypeKind::kDouble);
}
StructuralType StructuralType::Boolean() {
  return MakePrimitive(TypeKind::kBoolean);
}

StructuralType StructuralType::List(StructuralType element) {
  auto rep = std::make_shared<Rep>();
  rep->kind = TypeKind::kList;
  rep->element = std::make_shared<const StructuralType>(std::move(element));
  return StructuralType(std::move(rep));
}

StructuralType StructuralType::Record(
    std::vector<std::pair<std::string, StructuralType>> fields) {
  auto rep = std::make_shared<Rep>();
  rep->kind = TypeKind::kRecord;
  rep->fields = std::move(fields);
  return StructuralType(std::move(rep));
}

const StructuralType& StructuralType::element() const {
  assert(kind() == TypeKind::kList);
  return *rep_->element;
}

const std::vector<std::pair<std::string, StructuralType>>&
StructuralType::fields() const {
  assert(kind() == TypeKind::kRecord);
  return rep_->fields;
}

bool StructuralType::Equals(const StructuralType& other) const {
  if (rep_ == other.rep_) return true;
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case TypeKind::kList:
      return element().Equals(other.element());
    case TypeKind::kRecord: {
      const auto& a = fields();
      const auto& b = other.fields();
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first || !a[i].second.Equals(b[i].second)) {
          return false;
        }
      }
      return true;
    }
    default:
      return true;  // Same primitive kind.
  }
}

std::string StructuralType::ToString() const {
  switch (kind()) {
    case TypeKind::kList:
      return "List<" + element().ToString() + ">";
    case TypeKind::kRecord: {
      std::string out = "Record{";
      const auto& fs = fields();
      for (size_t i = 0; i < fs.size(); ++i) {
        if (i > 0) out += ", ";
        out += fs[i].first + ":" + fs[i].second.ToString();
      }
      out += "}";
      return out;
    }
    default:
      return TypeKindName(kind());
  }
}

namespace {

/// Recursive-descent parser over the ToString() grammar.
class TypeParser {
 public:
  explicit TypeParser(const std::string& text) : text_(text) {}

  Result<StructuralType> Parse() {
    auto type = ParseType(0);
    if (!type.ok()) return type;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters in type '" + text_ + "'");
    }
    return type;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
  }

  bool Consume(const std::string& token) {
    if (text_.compare(pos_, token.size(), token) == 0) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  /// `depth` counts the List and Record types enclosing the one parsed.
  Result<StructuralType> ParseType(int depth) {
    SkipSpace();
    const bool list = Consume("List<");
    const bool record = !list && Consume("Record{");
    if ((list || record) && depth >= kMaxNestingDepth) {
      return Status::ParseError("type nests deeper than " +
                                std::to_string(kMaxNestingDepth));
    }
    if (list) {
      auto element = ParseType(depth + 1);
      if (!element.ok()) return element;
      if (!Consume(">")) return Status::ParseError("expected '>' in List type");
      return StructuralType::List(std::move(element).value());
    }
    if (record) {
      std::vector<std::pair<std::string, StructuralType>> fields;
      SkipSpace();
      if (Consume("}")) return StructuralType::Record(std::move(fields));
      for (;;) {
        SkipSpace();
        size_t colon = text_.find(':', pos_);
        if (colon == std::string::npos) {
          return Status::ParseError("expected ':' in Record field");
        }
        std::string name = text_.substr(pos_, colon - pos_);
        pos_ = colon + 1;
        auto field_type = ParseType(depth + 1);
        if (!field_type.ok()) return field_type;
        fields.emplace_back(std::move(name), std::move(field_type).value());
        SkipSpace();
        if (Consume("}")) return StructuralType::Record(std::move(fields));
        if (!Consume(",")) {
          return Status::ParseError("expected ',' or '}' in Record type");
        }
      }
    }
    if (Consume("String")) return StructuralType::String();
    if (Consume("Integer")) return StructuralType::Integer();
    if (Consume("Double")) return StructuralType::Double();
    if (Consume("Boolean")) return StructuralType::Boolean();
    return Status::ParseError("unknown type at '" + text_.substr(pos_) + "'");
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<StructuralType> ParseStructuralType(const std::string& text) {
  return TypeParser(text).Parse();
}

}  // namespace dexa
