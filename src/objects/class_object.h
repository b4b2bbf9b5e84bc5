// Class objects (paper section 2.1).
//
// "Class objects in Legion serve two functions.  As in other
// object-oriented systems, Classes define the types of their instances.
// In Legion, Classes are also active entities, and act as managers for
// their instances.  Thus, a Class is the final authority in matters
// pertaining to its instances, including object placement."
//
// The Class exports create_instance(), which places an instance on a
// viable host.  An optional placement-suggestion argument (host, vault,
// reservation token) supports externally computed schedules; the Class
// still checks the placement for validity and conformance to local policy
// (section 3.4).  Without the argument, the Class makes a quick,
// almost-certainly-non-optimal default decision (round-robin over the
// resources it knows about).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "objects/interfaces.h"
#include "objects/legion_object.h"

namespace legion {

// A class's declared per-instance demand.
struct InstanceDemand {
  std::size_t memory_mb = 32;
  double cpu_fraction = 1.0;
};

class ClassObject : public LegionObject, public ClassInterface {
 public:
  ClassObject(SimKernel* kernel, Loid loid, std::string name,
              std::vector<Implementation> implementations,
              ObjectFactory factory = nullptr);

  const std::string& name() const { return name_; }

  // ---- ClassInterface ----------------------------------------------------
  void CreateInstance(std::optional<PlacementSuggestion> suggestion,
                      Callback<Loid> done) override;
  void GetImplementations(Callback<std::vector<Implementation>> done) override;
  void GetResourceRequirements(Callback<AttributeDatabase> done) override;

  // Starts `count` instances on one (host, vault) with a single
  // StartObject call -- the batched path Table 1's startObject() provides
  // for "efficient object creation for multiprocessor systems".
  void CreateInstancesOn(const PlacementSuggestion& suggestion,
                         std::size_t count,
                         Callback<std::vector<Loid>> done);

  // ---- Default-placement knowledge ----------------------------------------
  // Resources the class may use when no external schedule is supplied.
  void SetKnownResources(std::vector<std::pair<Loid, Loid>> host_vault_pairs);

  // ---- Local placement policy ---------------------------------------------
  // The Class is the final authority: every directed placement passes this
  // validator before the Class contacts the host.  Default: accept all.
  using PlacementValidator =
      std::function<Status(const PlacementSuggestion& suggestion)>;
  void SetPlacementValidator(PlacementValidator validator) {
    validator_ = std::move(validator);
  }

  // ---- Declared per-instance requirements ---------------------------------
  void SetInstanceRequirements(std::size_t memory_mb, double cpu_fraction) {
    demand_ = {memory_mb, cpu_fraction};
  }
  void SetEstimatedRuntime(Duration runtime) { estimated_runtime_ = runtime; }
  // Declares the size of every implementation's binary (drives the
  // transfer cost of cold starts / cache pulls).
  void SetBinaryBytes(std::size_t bytes) {
    for (Implementation& impl : implementations_) impl.binary_bytes = bytes;
  }
  const InstanceDemand& instance_demand() const { return demand_; }
  Duration estimated_runtime() const { return estimated_runtime_; }

  // ---- Instance registry ---------------------------------------------------
  const std::vector<Loid>& instances() const { return instances_; }
  // Removes a dead/killed instance from the registry.
  void ForgetInstance(const Loid& instance);

  const ObjectFactory& factory() const { return factory_; }

 private:
  // Quick default placement: round-robin attempts over known resources.
  void TryDefaultPlacement(std::size_t attempts_left, Callback<Loid> done);
  StartObjectRequest BuildRequest(const PlacementSuggestion& suggestion,
                                  std::size_t count);

  std::string name_;
  std::vector<Implementation> implementations_;
  ObjectFactory factory_;
  std::vector<std::pair<Loid, Loid>> known_resources_;
  std::size_t round_robin_ = 0;
  PlacementValidator validator_;
  InstanceDemand demand_;
  Duration estimated_runtime_ = Duration::Minutes(30);
  std::vector<Loid> instances_;
};

// The per-instance demand of `class_loid`, read from the local class
// object (a negotiator or scheduler caches this knowledge between calls
// in the real system); a class not found locally gets InstanceDemand's
// defaults.
InstanceDemand InstanceDemandOf(SimKernel* kernel, const Loid& class_loid);

}  // namespace legion
