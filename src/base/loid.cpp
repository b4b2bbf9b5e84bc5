#include "base/loid.h"

#include <charconv>
#include <ostream>
#include <sstream>
#include <string_view>
#include <system_error>

namespace legion {

const char* ToString(LoidSpace space) {
  switch (space) {
    case LoidSpace::kInvalid:
      return "invalid";
    case LoidSpace::kClass:
      return "class";
    case LoidSpace::kHost:
      return "host";
    case LoidSpace::kVault:
      return "vault";
    case LoidSpace::kObject:
      return "object";
    case LoidSpace::kService:
      return "service";
  }
  return "unknown";
}

std::string Loid::ToString() const {
  std::ostringstream os;
  os << legion::ToString(space_) << ':' << domain_ << '/' << serial_;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Loid& loid) {
  return os << loid.ToString();
}

namespace {

// Parses all of `field` as an unsigned decimal that fits T.  from_chars
// takes no sign, no whitespace and no prefix, and reports overflow.
template <typename T>
std::optional<T> ParseDecimal(std::string_view field) {
  T value = 0;
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<Loid> ParseLoid(const std::string& text) {
  const std::string_view view(text);
  const auto colon = view.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto slash = view.find('/', colon);
  if (slash == std::string_view::npos) return std::nullopt;
  const std::string_view space_name = view.substr(0, colon);
  LoidSpace space = LoidSpace::kInvalid;
  for (auto candidate :
       {LoidSpace::kClass, LoidSpace::kHost, LoidSpace::kVault,
        LoidSpace::kObject, LoidSpace::kService}) {
    if (space_name == ToString(candidate)) {
      space = candidate;
      break;
    }
  }
  if (space == LoidSpace::kInvalid) return std::nullopt;
  const auto domain =
      ParseDecimal<std::uint32_t>(view.substr(colon + 1, slash - colon - 1));
  const auto serial = ParseDecimal<std::uint64_t>(view.substr(slash + 1));
  if (!domain || !serial) return std::nullopt;
  return Loid(space, *domain, *serial);
}

}  // namespace legion
