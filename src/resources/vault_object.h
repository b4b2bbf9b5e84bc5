// Vault Objects (paper sections 2.1 and 3.1).
//
// "Vaults are the generic storage abstraction in Legion.  To be executed,
// a Legion object must have a Vault to hold its persistent state in an
// Object Persistent Representation (OPR)."  Vaults "only participate in
// the scheduling process at the start, when they verify that they are
// compatible with a Host.  They may, in the future, be differentiated by
// the amount of storage available, cost per byte, security policy, etc."
//
// We implement both the current behaviour (compatibility verification)
// and the "future" differentiation the paper sketches: capacity
// accounting, cost per megabyte, and a domain-reachability policy.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "objects/interfaces.h"
#include "objects/legion_object.h"
#include "objects/opr.h"

namespace legion {

struct VaultSpec {
  std::string name = "vault";
  std::uint32_t domain = 0;
  std::size_t capacity_mb = 10 * 1024;
  double cost_per_mb = 0.0;
  // Architectures whose OPRs this vault accepts; empty = all.
  std::vector<std::string> compatible_arches;
  // Public vaults are reachable from any domain; private ones only from
  // their own (a crude security policy).
  bool public_access = true;
};

class VaultObject : public LegionObject, public VaultInterface {
 public:
  VaultObject(SimKernel* kernel, Loid loid, VaultSpec spec);

  const VaultSpec& spec() const { return spec_; }

  // ---- VaultInterface ------------------------------------------------------
  void StoreOpr(const Opr& opr, Callback<bool> done) override;
  void FetchOpr(const Loid& object, Callback<Opr> done) override;
  void DeleteOpr(const Loid& object, Callback<bool> done) override;
  void Probe(std::uint32_t domain, const std::string& arch,
             Callback<bool> done) override;

  // Synchronous compatibility check used by topology builders.
  bool CompatibleWith(std::uint32_t domain, const std::string& arch) const;

  std::size_t stored_count() const { return oprs_.size(); }
  std::size_t used_bytes() const { return used_bytes_; }
  std::size_t capacity_bytes() const { return spec_.capacity_mb << 20; }
  double accrued_cost() const { return accrued_cost_; }

 private:
  void RepopulateAttributes();

  VaultSpec spec_;
  std::unordered_map<Loid, Opr> oprs_;
  std::size_t used_bytes_ = 0;
  double accrued_cost_ = 0.0;
};

}  // namespace legion
