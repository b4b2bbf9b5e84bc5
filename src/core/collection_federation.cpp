#include "core/collection_federation.h"

namespace legion {

CollectionFederation::CollectionFederation(SimKernel* kernel,
                                           std::uint32_t domains,
                                           FederationOptions options)
    : options_(options) {
  root_ = kernel->AddActor<CollectionObject>(
      kernel->minter().Mint(LoidSpace::kService, 0));
  for (std::uint32_t domain = 0; domain < domains; ++domain) {
    // Minted in the domain it serves: the CollectionObject constructor
    // registers its endpoint under loid().domain(), so member pushes and
    // scoped queries ride intra-domain links while only the delta
    // batches cross the WAN.
    auto* sub = kernel->AddActor<CollectionObject>(
        kernel->minter().Mint(LoidSpace::kService, domain));
    root_->AddChild(domain, sub->loid());
    sub->SetParent(root_->loid(), options_.push_period);
    subs_[domain] = sub;
  }
}

}  // namespace legion
