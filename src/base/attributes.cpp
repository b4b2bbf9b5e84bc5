#include "base/attributes.h"

#include <cmath>
#include <sstream>

namespace legion {

bool AttrValue::Truthy() const {
  if (is_null()) return false;
  if (is_bool()) return as_bool();
  if (is_int()) return as_int() != 0;
  if (is_double()) return as_double() != 0.0;
  if (is_string()) return !as_string().empty();
  return !as_list().empty();
}

std::string AttrValue::ToString() const {
  std::ostringstream os;
  if (is_null()) {
    os << "null";
  } else if (is_bool()) {
    os << (as_bool() ? "true" : "false");
  } else if (is_int()) {
    os << as_int();
  } else if (is_double()) {
    os << as_double();
  } else if (is_string()) {
    os << '"' << as_string() << '"';
  } else {
    os << '[';
    bool first = true;
    for (const auto& e : as_list()) {
      if (!first) os << ", ";
      first = false;
      os << e.ToString();
    }
    os << ']';
  }
  return os.str();
}

bool operator==(const AttrValue& a, const AttrValue& b) {
  // Numeric equality crosses the int/double divide.
  if (a.is_numeric() && b.is_numeric()) {
    if (a.is_int() && b.is_int()) return a.as_int() == b.as_int();
    return a.as_double() == b.as_double();
  }
  return a.v_ == b.v_;
}

std::optional<int> CompareAttrValues(const AttrValue& a, const AttrValue& b) {
  if (a.is_numeric() && b.is_numeric()) {
    if (a.is_int() && b.is_int()) {
      auto x = a.as_int(), y = b.as_int();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = a.as_double(), y = b.as_double();
    if (std::isnan(x) || std::isnan(y)) return std::nullopt;
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.is_string() && b.is_string()) {
    int c = a.as_string().compare(b.as_string());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a.is_bool() && b.is_bool()) {
    return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
  }
  return std::nullopt;
}

const AttributeDatabase::Map& AttributeDatabase::Attrs() const {
  static const Map kEmpty;
  return attrs_ ? *attrs_ : kEmpty;
}

AttributeDatabase::Map& AttributeDatabase::Mutable() {
  if (!attrs_) {
    attrs_ = std::make_shared<Map>();
  } else if (attrs_.use_count() > 1) {
    attrs_ = std::make_shared<Map>(*attrs_);
  }
  return *attrs_;
}

void AttributeDatabase::Set(const std::string& name, AttrValue value) {
  Mutable()[name] = std::move(value);
}

const AttrValue* AttributeDatabase::Get(const std::string& name) const {
  if (!attrs_) return nullptr;
  auto it = attrs_->find(name);
  return it == attrs_->end() ? nullptr : &it->second;
}

AttrValue AttributeDatabase::GetOr(const std::string& name,
                                   AttrValue fallback) const {
  const AttrValue* v = Get(name);
  return v != nullptr ? *v : fallback;
}

bool AttributeDatabase::Has(const std::string& name) const {
  return Get(name) != nullptr;
}

bool AttributeDatabase::Erase(const std::string& name) {
  // An absent name leaves a shared map shared.
  if (!Has(name)) return false;
  Mutable().erase(name);
  return true;
}

void AttributeDatabase::Clear() {
  attrs_.reset();
}

void AttributeDatabase::MergeFrom(const AttributeDatabase& other) {
  // Merging itself or nothing changes no value, so it keeps any sharing.
  if (this == &other || other.empty()) return;
  Map& mine = Mutable();
  for (const auto& [name, value] : other.Attrs()) mine[name] = value;
}

std::string AttributeDatabase::ToString() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, value] : Attrs()) {
    if (!first) os << ", ";
    first = false;
    os << name << '=' << value.ToString();
  }
  os << '}';
  return os.str();
}

}  // namespace legion
