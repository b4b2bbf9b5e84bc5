#include "base/attributes.h"

#include <algorithm>
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

namespace {

// The first entry whose name is not below `name`: the entry itself when
// present, else the position it belongs at.
template <typename It>
It LowerBound(It first, It last, std::string_view name) {
  return std::lower_bound(
      first, last, name,
      [](const AttributeDatabase::Entry& entry, std::string_view key) {
        return std::string_view(entry.first) < key;
      });
}

}  // namespace

const AttributeDatabase::Entries& AttributeDatabase::Attrs() const {
  static const Entries kEmpty;
  return attrs_ ? *attrs_ : kEmpty;
}

AttributeDatabase::Entries& AttributeDatabase::Mutable() {
  if (!attrs_) {
    attrs_ = std::make_shared<Entries>();
  } else if (attrs_.use_count() > 1) {
    // One spare slot: a clone is usually made to insert one name (the
    // Collection's `member`), and then that insert does not reallocate.
    auto clone = std::make_shared<Entries>();
    clone->reserve(attrs_->size() + 1);
    clone->assign(attrs_->begin(), attrs_->end());
    attrs_ = std::move(clone);
  }
  return *attrs_;
}

void AttributeDatabase::Set(std::string_view name, AttrValue value) {
  Entries& entries = Mutable();
  auto it = LowerBound(entries.begin(), entries.end(), name);
  if (it != entries.end() && it->first == name) {
    it->second = std::move(value);
  } else {
    entries.emplace(it, std::string(name), std::move(value));
  }
}

const AttrValue* AttributeDatabase::Get(std::string_view name) const {
  if (!attrs_) return nullptr;
  auto it = LowerBound(attrs_->begin(), attrs_->end(), name);
  return it != attrs_->end() && it->first == name ? &it->second : nullptr;
}

AttrValue AttributeDatabase::GetOr(std::string_view name,
                                   AttrValue fallback) const {
  const AttrValue* v = Get(name);
  return v != nullptr ? *v : fallback;
}

bool AttributeDatabase::Has(std::string_view name) const {
  return Get(name) != nullptr;
}

bool AttributeDatabase::Erase(std::string_view name) {
  // An absent name leaves a shared array shared.
  if (!Has(name)) return false;
  Entries& entries = Mutable();
  entries.erase(LowerBound(entries.begin(), entries.end(), name));
  return true;
}

void AttributeDatabase::Clear() {
  attrs_.reset();
}

void AttributeDatabase::MergeFrom(const AttributeDatabase& other) {
  // Merging itself or nothing changes no value, so it keeps any sharing.
  if (this == &other || other.empty()) return;
  for (const auto& [name, value] : other.Attrs()) Set(name, value);
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
