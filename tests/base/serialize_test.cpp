#include "base/serialize.h"

#include <gtest/gtest.h>

namespace legion {
namespace {

TEST(SerializeTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI64(-42);
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializeTest, TruncatedBufferFailsCleanly) {
  ByteWriter w;
  w.WriteU64(1);
  auto bytes = w.bytes();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadU64().ok());
}

TEST(SerializeTest, EmptyReaderReportsExhausted) {
  std::vector<std::uint8_t> bytes;
  ByteReader r(bytes);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.ReadU8().ok());
}

}  // namespace
}  // namespace legion
