// Local placement policies: the autonomy half of the negotiation.
//
// "Scheduling in Legion is never of a dictatorial nature; requests are
// made of resource guardians, who have final authority over what requests
// are honored."  When asked for a reservation, the Host checks that "its
// local placement policy permits instantiating the object" (section 3.1),
// and the attribute examples include "domains from which it refuses to
// accept object instantiation requests, or a description of its
// willingness to accept extra jobs based on the time of day".
//
// A policy sees the request plus the host's current attributes and
// accepts or refuses.  The experiments exercise autonomy through the
// domain refusal; a host without a policy of its own accepts everything.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/attributes.h"
#include "base/result.h"
#include "base/sim_time.h"
#include "objects/interfaces.h"

namespace legion {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  // OK to place, or kRefused with a reason.
  virtual Status Permit(const ReservationRequest& request,
                        const AttributeDatabase& host_attributes,
                        SimTime now) const = 0;

  // Human-readable description exported in host attributes.
  virtual std::string Describe() const = 0;
};

// Accepts everything (the default).
class AcceptAllPolicy : public PlacementPolicy {
 public:
  Status Permit(const ReservationRequest&, const AttributeDatabase&,
                SimTime) const override {
    return Status::Ok();
  }
  std::string Describe() const override { return "accept-all"; }
};

// Refuses requests originating from listed administrative domains.
class DomainRefusalPolicy : public PlacementPolicy {
 public:
  explicit DomainRefusalPolicy(std::vector<std::uint32_t> refused)
      : refused_(std::move(refused)) {}
  Status Permit(const ReservationRequest& request, const AttributeDatabase&,
                SimTime) const override;
  std::string Describe() const override;

 private:
  std::vector<std::uint32_t> refused_;
};

}  // namespace legion
