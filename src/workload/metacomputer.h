// Metacomputer topology builder.
//
// Assembles the simulated wide-area system the paper assumes: multiple
// administrative domains, each with a mix of Unix workstations, SMPs, and
// batch-queue-fronted machines plus vaults, all registered with a
// Collection and reachable through an Enactor.  Every experiment and
// example builds its world through this module so topologies are
// reproducible from a seed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/collection.h"
#include "core/collection_federation.h"
#include "core/dcd.h"
#include "core/enactor.h"
#include "core/monitor.h"
#include "objects/class_object.h"
#include "resources/batch_queue_host.h"
#include "resources/host_object.h"
#include "resources/vault_object.h"

namespace legion {

struct MetacomputerConfig {
  std::size_t domains = 4;
  std::size_t hosts_per_domain = 8;
  std::size_t vaults_per_domain = 2;
  // Host-kind mix (fractions of hosts_per_domain, drawn per host).
  double smp_fraction = 0.2;
  double batch_fraction = 0.0;       // FIFO/Condor/LoadLeveler batch hosts
  double maui_fraction = 0.0;        // batch hosts with native reservations
  bool heterogeneous = true;         // mixed architectures and OSes
  std::uint64_t seed = 42;
  Duration reassess_period = Duration::Seconds(10);
  LoadModelParams load;
  // Give each host an individual long-run load mean drawn uniformly from
  // [0.05, 0.95] (structurally busy vs idle machines); the forecaster
  // experiments need this signal.
  bool randomize_load_mean = false;
  // Start hosts' periodic reassessment (drives pushes + triggers).
  bool start_reassessment = false;
  // Federated Collection topology (DESIGN.md §10): one sub-Collection
  // per domain that hosts join locally, plus a root aggregating via
  // periodic delta pushes.  collection() then returns the root.
  bool federated = false;
  Duration delta_push_period = Duration::Seconds(5);
  // Reservation batching (DESIGN.md §11): the Enactor coalesces
  // same-host reservation requests into one RPC of up to
  // reservation_batch_cap slots (1 = one RPC per mapping) and keeps
  // at most max_outstanding_batches in flight (0 = unlimited).
  std::size_t reservation_batch_cap = 64;
  std::size_t max_outstanding_batches = 32;
};

// The architecture/OS pairs a heterogeneous metacomputer mixes.
struct Platform {
  const char* arch;
  const char* os_name;
  const char* os_version;
};
const std::vector<Platform>& KnownPlatforms();

class Metacomputer {
 public:
  Metacomputer(SimKernel* kernel, MetacomputerConfig config);

  SimKernel* kernel() const { return kernel_; }
  const MetacomputerConfig& config() const { return config_; }

  // The Collection queries should address: the flat Collection, or the
  // federation root when config.federated is set.
  CollectionObject* collection() const { return collection_; }
  // The federation topology, or nullptr when running flat.
  CollectionFederation* federation() const { return federation_.get(); }
  EnactorObject* enactor() const { return enactor_; }
  MonitorObject* monitor() const { return monitor_; }

  const std::vector<HostObject*>& hosts() const { return hosts_; }
  const std::vector<VaultObject*>& vaults() const { return vaults_; }

  HostObject* FindHost(const Loid& loid) const;
  VaultObject* FindVault(const Loid& loid) const;

  // Creates a class whose implementations cover every platform in the
  // topology (so every host matches).
  ClassObject* MakeUniversalClass(const std::string& name,
                                  std::size_t memory_mb = 32,
                                  double cpu_fraction = 1.0);
  // Creates a class restricted to the given platforms.
  ClassObject* MakeClass(const std::string& name,
                         std::vector<Implementation> implementations,
                         std::size_t memory_mb = 32,
                         double cpu_fraction = 1.0);

  // Forces every host to reassess + push, then runs the kernel long
  // enough for the pushes to land in the Collection.
  void PopulateCollection();

  // Runs the kernel for the given simulated span.
  void Settle(Duration d) { kernel_->RunFor(d); }

 private:
  SimKernel* kernel_;
  MetacomputerConfig config_;
  Rng rng_;
  std::unique_ptr<CollectionFederation> federation_;
  CollectionObject* collection_ = nullptr;
  EnactorObject* enactor_ = nullptr;
  MonitorObject* monitor_ = nullptr;
  std::vector<HostObject*> hosts_;
  std::vector<VaultObject*> vaults_;
  std::uint64_t next_class_serial_ = 100;
};

}  // namespace legion
