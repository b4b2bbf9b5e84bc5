#include "base/serialize.h"

namespace legion {
namespace {

Status Truncated() {
  return Status::Error(ErrorCode::kMalformedSchedule, "truncated buffer");
}

}  // namespace

void ByteWriter::WriteU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::WriteU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

Result<std::uint8_t> ByteReader::ReadU8() {
  if (!Need(1)) return Truncated();
  return data_[pos_++];
}

Result<std::uint32_t> ByteReader::ReadU32() {
  if (!Need(4)) return Truncated();
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<std::uint64_t> ByteReader::ReadU64() {
  if (!Need(8)) return Truncated();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<std::int64_t> ByteReader::ReadI64() {
  auto v = ReadU64();
  if (!v) return v.status();
  return static_cast<std::int64_t>(*v);
}

}  // namespace legion
