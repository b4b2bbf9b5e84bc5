#include "core/impl_cache.h"

#include "objects/core_hierarchy.h"

namespace legion {

ImplementationCacheObject::ImplementationCacheObject(SimKernel* kernel,
                                                     Loid loid,
                                                     std::uint32_t domain)
    : LegionObject(kernel, loid, ServiceClassLoid(domain)) {
  kernel->network().RegisterEndpoint(loid, domain);
  (void)Activate(loid, Loid());
  mutable_attributes().Set("service", "implementation-cache");
}

bool ImplementationCacheObject::Cached(const Loid& class_loid,
                                       const std::string& impl_key) const {
  return cached_.count(Key(class_loid, impl_key)) != 0;
}

void ImplementationCacheObject::EnsureBinary(const Loid& class_loid,
                                             const std::string& impl_key,
                                             std::size_t binary_bytes,
                                             Callback<bool> done) {
  const std::string key = Key(class_loid, impl_key);
  if (cached_.count(key) != 0) {
    ++hits_;
    done(true);
    return;
  }
  ++misses_;
  auto pending_it = pending_.find(key);
  if (pending_it != pending_.end()) {
    // A pull is already in flight; ride along.
    pending_it->second.push_back(std::move(done));
    return;
  }
  pending_[key].push_back(std::move(done));
  PullBinary(
      kernel(), loid(), class_loid, binary_bytes,
      [this, key, binary_bytes](Result<bool> fetched) {
        const bool ok = fetched.ok() && *fetched;
        if (ok) {
          cached_.insert(key);
          bytes_cached_ += binary_bytes;
        }
        auto waiters = std::move(pending_[key]);
        pending_.erase(key);
        for (auto& waiter : waiters) waiter(ok);
      });
}

}  // namespace legion
