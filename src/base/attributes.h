// The Legion object attribute database.
//
// Every Legion object carries an extensible attribute database whose
// contents are determined by the object's type (paper section 3.1).  In the
// simplest form attributes are (name, value) pairs; Host objects populate
// theirs with architecture, operating system, load, available memory, cost
// per CPU cycle, domain refusal lists, and so on, and Collections store one
// attribute record per resource.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace legion {

class AttrValue;
using AttrList = std::vector<AttrValue>;

// A single attribute value.  Numeric values may be integral or floating;
// the comparison helpers coerce between the two.  Lists support
// multi-valued attributes such as a Host's compatible-vault set.
class AttrValue {
 public:
  using Storage =
      std::variant<std::monostate, bool, std::int64_t, double, std::string,
                   AttrList>;

  AttrValue() = default;
  AttrValue(bool b) : v_(b) {}                          // NOLINT(runtime/explicit)
  AttrValue(std::int64_t i) : v_(i) {}                  // NOLINT(runtime/explicit)
  AttrValue(int i) : v_(static_cast<std::int64_t>(i)) {}  // NOLINT
  AttrValue(double d) : v_(d) {}                        // NOLINT(runtime/explicit)
  AttrValue(std::string s) : v_(std::move(s)) {}        // NOLINT(runtime/explicit)
  AttrValue(const char* s) : v_(std::string(s)) {}      // NOLINT(runtime/explicit)
  AttrValue(AttrList l) : v_(std::move(l)) {}           // NOLINT(runtime/explicit)

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_list() const { return std::holds_alternative<AttrList>(v_); }
  bool is_numeric() const { return is_int() || is_double(); }

  bool as_bool() const { return std::get<bool>(v_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  double as_double() const {
    return is_int() ? static_cast<double>(as_int()) : std::get<double>(v_);
  }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const AttrList& as_list() const { return std::get<AttrList>(v_); }

  // Truthiness used by the query evaluator: null/false/0/"" are false.
  bool Truthy() const;

  // Renders the value for diagnostics; strings are quoted.
  std::string ToString() const;

  const Storage& storage() const { return v_; }

  friend bool operator==(const AttrValue& a, const AttrValue& b);
  friend bool operator!=(const AttrValue& a, const AttrValue& b) {
    return !(a == b);
  }

 private:
  Storage v_;
};

// Three-valued comparison used by the query engine.  Returns nullopt when
// the values are incomparable (e.g. string vs list); numeric values compare
// across int/double.
std::optional<int> CompareAttrValues(const AttrValue& a, const AttrValue& b);

// An attribute database: named attribute values, kept in one array
// sorted by name, so snapshots render deterministically and a lookup is
// a binary search over contiguous entries.  Names are looked up as
// std::string_view, so reading by a literal builds no std::string.
//
// A copy-on-write value: copies share one array until either side
// writes, and the first write through a shared handle clones the array
// first.  So a host's push snapshot, the Collection's stored record, a
// federation journal entry and every query reply holding the same
// attributes cost one array between them, and a writer never disturbs
// another holder.  The use_count() check behind this is sound because
// the simulation is single-threaded (DESIGN.md §3).
//
// Rule for callers: a pointer from Get() or an iterator is valid only
// until the next write through the same handle.  After the write it may
// point into the old, still-shared array rather than the handle's own,
// or, on an unshared handle, at an entry that an insert or erase moved,
// so never read through it again.
class AttributeDatabase {
 public:
  using Entry = std::pair<std::string, AttrValue>;

  // Assigns a present name in place; inserts a new one at its sorted
  // position.
  void Set(std::string_view name, AttrValue value);
  // Returns nullptr if absent.
  const AttrValue* Get(std::string_view name) const;
  // Returns the value or `fallback` if absent.
  AttrValue GetOr(std::string_view name, AttrValue fallback) const;
  bool Has(std::string_view name) const;
  bool Erase(std::string_view name);
  void Clear();

  // Copies every attribute of `other` into this database (overwriting).
  void MergeFrom(const AttributeDatabase& other);

  std::size_t size() const { return attrs_ ? attrs_->size() : 0; }
  bool empty() const { return size() == 0; }

  auto begin() const { return Attrs().begin(); }
  auto end() const { return Attrs().end(); }

  std::string ToString() const;

 private:
  using Entries = std::vector<Entry>;

  // The shared array, or an empty one when nothing is stored.
  const Entries& Attrs() const;
  // The array this handle may write: created if absent, cloned if shared.
  Entries& Mutable();

  std::shared_ptr<Entries> attrs_;  // null means empty
};

}  // namespace legion
