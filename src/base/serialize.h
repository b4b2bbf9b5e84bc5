// Byte framing for the bodies of Object Persistent Representations (OPRs).
//
// Every Legion object can be shut down to a passive state stored in a
// Vault and later restarted, possibly on a different host (paper section
// 2.1); that passive state is the OPR.  OPRs move between hosts and vaults
// as structs (objects/opr.h); only the opaque body is bytes, framed by the
// object itself (LegionObject::SerializeBody) with these fixed-width
// little-endian integers.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "base/result.h"

namespace legion {

class ByteWriter {
 public:
  void WriteU8(std::uint8_t v) { buf_.push_back(v); }
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI64(std::int64_t v) { WriteU64(static_cast<std::uint64_t>(v)); }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  Result<std::uint8_t> ReadU8();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<std::int64_t> ReadI64();

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ >= size_; }

 private:
  bool Need(std::size_t n) const { return pos_ + n <= size_; }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace legion
