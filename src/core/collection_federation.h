// Federated Collection topology (DESIGN.md §10).
//
// The paper (§3.2) notes that Collections "may be organized in a
// hierarchy" so that no single attribute database must describe an
// entire metacomputing grid.  CollectionFederation builds the two-level
// form of that hierarchy: one sub-Collection per network domain --
// registered *in* that domain, so host/vault pushes stay on cheap
// intra-domain links -- plus a root Collection aggregating every domain
// through periodic, versioned delta pushes.
//
// Query routing contract:
//   * domain-scoped queries go straight to the owning sub-Collection
//     (fresh, intra-domain, O(domain) records);
//   * global queries answer from the root's aggregate, stale by at most
//     one push period plus a WAN hop per domain -- unless the caller
//     passes QueryOptions::max_staleness, which forces a refresh pull
//     from any domain whose last delta batch is older than the bound.
#pragma once

#include <map>
#include <memory>

#include "core/collection.h"

namespace legion {

struct FederationOptions {
  // How often each sub-Collection pushes its delta journal to the root.
  // The root's staleness for a domain is bounded by this period plus the
  // inter-domain delivery latency (empty batches act as heartbeats).
  Duration push_period = Duration::Seconds(5);
};

// Owns nothing: the kernel owns the actors.  This is a builder plus a
// routing table.
class CollectionFederation {
 public:
  // Creates the root (service domain 0) and one sub-Collection per
  // domain in [0, domains), wired for delta propagation.
  CollectionFederation(SimKernel* kernel, std::uint32_t domains,
                       FederationOptions options = {});

  CollectionObject* root() const { return root_; }
  CollectionObject* sub(DomainId domain) const {
    auto it = subs_.find(domain);
    return it == subs_.end() ? nullptr : it->second;
  }
  const std::map<DomainId, CollectionObject*>& subs() const { return subs_; }

  Duration push_period() const { return options_.push_period; }

 private:
  FederationOptions options_;
  CollectionObject* root_ = nullptr;
  std::map<DomainId, CollectionObject*> subs_;
};

}  // namespace legion
