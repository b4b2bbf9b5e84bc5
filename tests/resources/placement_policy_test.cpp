#include "resources/placement_policy.h"

#include <gtest/gtest.h>

namespace legion {
namespace {

ReservationRequest RequestFromDomain(std::uint32_t domain) {
  ReservationRequest request;
  request.requester = Loid(LoidSpace::kService, domain, 1);
  request.vault = Loid(LoidSpace::kVault, 0, 1);
  return request;
}

TEST(PlacementPolicyTest, AcceptAllAccepts) {
  AcceptAllPolicy policy;
  AttributeDatabase attrs;
  EXPECT_TRUE(policy.Permit(RequestFromDomain(3), attrs, SimTime(0)).ok());
  EXPECT_EQ(policy.Describe(), "accept-all");
}

TEST(DomainRefusalPolicyTest, RefusesListedDomains) {
  // The paper's attribute example: "domains from which it refuses to
  // accept object instantiation requests".
  DomainRefusalPolicy policy({2, 5});
  AttributeDatabase attrs;
  EXPECT_TRUE(policy.Permit(RequestFromDomain(1), attrs, SimTime(0)).ok());
  EXPECT_EQ(policy.Permit(RequestFromDomain(2), attrs, SimTime(0)).code(),
            ErrorCode::kRefused);
  EXPECT_EQ(policy.Permit(RequestFromDomain(5), attrs, SimTime(0)).code(),
            ErrorCode::kRefused);
  EXPECT_TRUE(policy.Permit(RequestFromDomain(6), attrs, SimTime(0)).ok());
}

TEST(PolicyDescribeTest, DescriptionsAreInformative) {
  DomainRefusalPolicy refusal({1, 2});
  EXPECT_EQ(refusal.Describe(), "refuse-domains[1,2]");
}

}  // namespace
}  // namespace legion
