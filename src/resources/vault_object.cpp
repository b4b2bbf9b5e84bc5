#include "resources/vault_object.h"

#include <algorithm>

#include "objects/core_hierarchy.h"

namespace legion {

VaultObject::VaultObject(SimKernel* kernel, Loid loid, VaultSpec spec)
    : LegionObject(kernel, loid, VaultClassLoid(spec.domain)),
      spec_(std::move(spec)) {
  kernel->network().RegisterEndpoint(loid, spec_.domain);
  (void)Activate(loid, Loid());
  RepopulateAttributes();
}

bool VaultObject::CompatibleWith(std::uint32_t domain,
                                 const std::string& arch) const {
  if (!spec_.public_access && domain != spec_.domain) return false;
  if (!spec_.compatible_arches.empty() &&
      std::find(spec_.compatible_arches.begin(),
                spec_.compatible_arches.end(),
                arch) == spec_.compatible_arches.end()) {
    return false;
  }
  return true;
}

void VaultObject::Probe(std::uint32_t domain, const std::string& arch,
                        Callback<bool> done) {
  done(CompatibleWith(domain, arch));
}

void VaultObject::StoreOpr(const Opr& opr, Callback<bool> done) {
  const std::size_t bytes = opr.SizeBytes();
  auto it = oprs_.find(opr.object);
  const std::size_t replaced = it == oprs_.end() ? 0 : it->second.SizeBytes();
  if (used_bytes_ - replaced + bytes > capacity_bytes()) {
    done(Status::Error(ErrorCode::kNoResources, "vault full"));
    return;
  }
  used_bytes_ = used_bytes_ - replaced + bytes;
  accrued_cost_ += spec_.cost_per_mb * static_cast<double>(bytes) / (1 << 20);
  oprs_[opr.object] = opr;
  RepopulateAttributes();
  done(true);
}

void VaultObject::FetchOpr(const Loid& object, Callback<Opr> done) {
  auto it = oprs_.find(object);
  if (it == oprs_.end()) {
    done(Status::Error(ErrorCode::kNotFound,
                       "no OPR for " + object.ToString()));
    return;
  }
  done(it->second);
}

void VaultObject::DeleteOpr(const Loid& object, Callback<bool> done) {
  auto it = oprs_.find(object);
  if (it == oprs_.end()) {
    done(false);
    return;
  }
  used_bytes_ -= it->second.SizeBytes();
  oprs_.erase(it);
  RepopulateAttributes();
  done(true);
}

void VaultObject::RepopulateAttributes() {
  AttributeDatabase& attrs = mutable_attributes();
  attrs.Set("vault_name", spec_.name);
  attrs.Set("vault_domain", static_cast<std::int64_t>(spec_.domain));
  attrs.Set("vault_capacity_mb", static_cast<std::int64_t>(spec_.capacity_mb));
  attrs.Set("vault_used_mb",
            static_cast<std::int64_t>(used_bytes_ >> 20));
  attrs.Set("vault_cost_per_mb", spec_.cost_per_mb);
  attrs.Set("vault_public", spec_.public_access);
  attrs.Set("vault_stored_oprs", static_cast<std::int64_t>(oprs_.size()));
  AttrList arches;
  for (const auto& arch : spec_.compatible_arches) {
    arches.push_back(AttrValue(arch));
  }
  attrs.Set("vault_arches", AttrValue(std::move(arches)));
}

}  // namespace legion
