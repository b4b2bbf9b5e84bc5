#include "resources/placement_policy.h"

#include <algorithm>
#include <sstream>

namespace legion {

Status DomainRefusalPolicy::Permit(const ReservationRequest& request,
                                   const AttributeDatabase&, SimTime) const {
  const std::uint32_t domain = request.requester.domain();
  if (std::find(refused_.begin(), refused_.end(), domain) != refused_.end()) {
    return Status::Error(ErrorCode::kRefused,
                         "requests from domain " + std::to_string(domain) +
                             " are refused here");
  }
  return Status::Ok();
}

std::string DomainRefusalPolicy::Describe() const {
  std::ostringstream os;
  os << "refuse-domains[";
  for (std::size_t i = 0; i < refused_.size(); ++i) {
    if (i != 0) os << ',';
    os << refused_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace legion
