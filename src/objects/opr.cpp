#include "objects/opr.h"

namespace legion {

std::size_t Opr::SizeBytes() const {
  // Fixed header + attribute payload estimate + body.
  std::size_t attr_bytes = 0;
  for (const auto& [name, value] : attributes) {
    attr_bytes += name.size() + value.ToString().size() + 8;
  }
  return 64 + attr_bytes + body.size();
}

}  // namespace legion
