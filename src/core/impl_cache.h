// Implementation caches (paper section 2).
//
// "Between core objects and user objects lie service objects -- objects
// which improve system performance, but are not truly essential to
// system operation.  Examples of service objects include caches for
// object implementations, file objects, and the resource management
// infrastructure."
//
// An ImplementationCacheObject sits near a group of hosts (typically one
// per domain) and serves class binaries.  The first request for an
// implementation pulls the binary from the class object across the
// network (paying the transfer for `binary_bytes`); subsequent requests
// hit the cache at LAN cost.  Hosts consult their cache before first
// activating an implementation, so cold starts are visibly slower than
// warm starts -- the performance effect the paper introduces service
// objects for.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "objects/interfaces.h"
#include "objects/legion_object.h"

namespace legion {

class ImplementationCacheObject : public LegionObject, public BinaryProvider {
 public:
  ImplementationCacheObject(SimKernel* kernel, Loid loid,
                            std::uint32_t domain);

  // Ensures the binary for (class, "arch/os") is locally available;
  // `done(true)` once it is.  A miss pulls `binary_bytes` from the class
  // object over the network; concurrent requests for the same key share
  // one pull.
  void EnsureBinary(const Loid& class_loid, const std::string& impl_key,
                    std::size_t binary_bytes, Callback<bool> done) override;

  bool Cached(const Loid& class_loid, const std::string& impl_key) const;
  std::size_t cached_count() const { return cached_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t bytes_cached() const { return bytes_cached_; }

 private:
  static std::string Key(const Loid& class_loid, const std::string& impl_key) {
    return class_loid.ToString() + "#" + impl_key;
  }

  std::unordered_set<std::string> cached_;
  // In-flight pulls: key -> waiting completions.
  std::unordered_map<std::string, std::vector<Callback<bool>>> pending_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::size_t bytes_cached_ = 0;
};

}  // namespace legion
