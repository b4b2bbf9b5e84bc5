#include "base/loid.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

namespace legion {
namespace {

TEST(LoidTest, DefaultIsInvalid) {
  Loid loid;
  EXPECT_FALSE(loid.valid());
  EXPECT_EQ(loid.space(), LoidSpace::kInvalid);
}

TEST(LoidTest, FieldsRoundTrip) {
  Loid loid(LoidSpace::kHost, 7, 42);
  EXPECT_TRUE(loid.valid());
  EXPECT_EQ(loid.space(), LoidSpace::kHost);
  EXPECT_EQ(loid.domain(), 7u);
  EXPECT_EQ(loid.serial(), 42u);
}

TEST(LoidTest, EqualityAndOrdering) {
  Loid a(LoidSpace::kHost, 1, 1);
  Loid b(LoidSpace::kHost, 1, 2);
  Loid c(LoidSpace::kVault, 1, 1);
  EXPECT_EQ(a, a);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);  // host space sorts before vault space
}

TEST(LoidTest, ToStringFormat) {
  EXPECT_EQ(Loid(LoidSpace::kHost, 3, 17).ToString(), "host:3/17");
  EXPECT_EQ(Loid(LoidSpace::kClass, 0, 1).ToString(), "class:0/1");
  EXPECT_EQ(Loid(LoidSpace::kVault, 2, 9).ToString(), "vault:2/9");
  EXPECT_EQ(Loid(LoidSpace::kObject, 1, 5).ToString(), "object:1/5");
  EXPECT_EQ(Loid(LoidSpace::kService, 0, 2).ToString(), "service:0/2");
}

TEST(LoidTest, ParseRoundTripsEverySpace) {
  for (auto space : {LoidSpace::kClass, LoidSpace::kHost, LoidSpace::kVault,
                     LoidSpace::kObject, LoidSpace::kService}) {
    for (const Loid& original :
         {Loid(space, 12, 345), Loid(space, 0, 0),
          Loid(space, UINT32_MAX, UINT64_MAX)}) {
      auto parsed = ParseLoid(original.ToString());
      ASSERT_TRUE(parsed.has_value()) << original.ToString();
      EXPECT_EQ(*parsed, original);
    }
  }
}

TEST(LoidTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseLoid("").has_value());
  EXPECT_FALSE(ParseLoid("host").has_value());
  EXPECT_FALSE(ParseLoid("host:").has_value());
  EXPECT_FALSE(ParseLoid("host:3").has_value());
  EXPECT_FALSE(ParseLoid("plane:3/17").has_value());
  EXPECT_FALSE(ParseLoid("host:x/17").has_value());
  EXPECT_FALSE(ParseLoid("host:3/abc").has_value());
  EXPECT_FALSE(ParseLoid("host:3/17trailing").has_value());
  EXPECT_FALSE(ParseLoid("host:/5").has_value());
  EXPECT_FALSE(ParseLoid("host:3/").has_value());
  // Signs, whitespace and out-of-range fields must not wrap into another
  // valid LOID.
  EXPECT_FALSE(ParseLoid("host:-1/5").has_value());
  EXPECT_FALSE(ParseLoid("host:4294967296/1").has_value());
  EXPECT_FALSE(ParseLoid("host:3/-1").has_value());
  EXPECT_FALSE(ParseLoid("host:3/18446744073709551616").has_value());
  EXPECT_FALSE(ParseLoid("host: 3/5").has_value());
  EXPECT_FALSE(ParseLoid("host:+3/5").has_value());
  EXPECT_FALSE(ParseLoid("host:3/ 17").has_value());
  EXPECT_FALSE(ParseLoid("host:3/+17").has_value());
}

TEST(LoidTest, HashDistributesAndMatchesEquality) {
  std::unordered_set<Loid> set;
  for (std::uint32_t d = 0; d < 10; ++d) {
    for (std::uint64_t s = 0; s < 100; ++s) {
      set.insert(Loid(LoidSpace::kHost, d, s));
    }
  }
  EXPECT_EQ(set.size(), 1000u);
  EXPECT_TRUE(set.count(Loid(LoidSpace::kHost, 5, 50)));
  EXPECT_FALSE(set.count(Loid(LoidSpace::kVault, 5, 50)));
}

TEST(LoidMinterTest, MintsUniqueSerials) {
  LoidMinter minter;
  std::set<Loid> minted;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(minted.insert(minter.Mint(LoidSpace::kObject, 0)).second);
  }
  // Different spaces/domains still draw from one serial stream, so no
  // two minted LOIDs ever collide.
  EXPECT_TRUE(minted.insert(minter.Mint(LoidSpace::kHost, 1)).second);
}

TEST(LoidTest, PackHalvesDifferentiate) {
  Loid a(LoidSpace::kHost, 1, 2);
  Loid b(LoidSpace::kHost, 2, 1);
  EXPECT_NE(a.pack_hi(), b.pack_hi());
  EXPECT_NE(a.pack_lo(), b.pack_lo());
}

}  // namespace
}  // namespace legion
