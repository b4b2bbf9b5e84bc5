#include "workload/metacomputer.h"

#include "objects/core_hierarchy.h"

namespace legion {

const std::vector<Platform>& KnownPlatforms() {
  static const std::vector<Platform> platforms = {
      {"x86", "Linux", "2.2"},
      {"sparc", "Solaris", "2.6"},
      {"alpha", "OSF1", "4.0"},
      {"mips", "IRIX", "5.3"},
  };
  return platforms;
}

Metacomputer::Metacomputer(SimKernel* kernel, MetacomputerConfig config)
    : kernel_(kernel), config_(config), rng_(config.seed) {
  // Core services live in domain 0.
  if (config_.federated) {
    FederationOptions federation_options;
    federation_options.push_period = config_.delta_push_period;
    federation_ = std::make_unique<CollectionFederation>(
        kernel_, static_cast<std::uint32_t>(config_.domains),
        federation_options);
    collection_ = federation_->root();
  } else {
    collection_ = kernel_->AddActor<CollectionObject>(
        kernel_->minter().Mint(LoidSpace::kService, 0));
    kernel_->network().RegisterEndpoint(collection_->loid(), 0);
  }
  EnactorOptions enactor_options;
  enactor_options.max_batch_size = config_.reservation_batch_cap;
  enactor_options.max_outstanding_batches = config_.max_outstanding_batches;
  enactor_ = kernel_->AddActor<EnactorObject>(
      kernel_->minter().Mint(LoidSpace::kService, 0), enactor_options);
  monitor_ = kernel_->AddActor<MonitorObject>(
      kernel_->minter().Mint(LoidSpace::kService, 0));

  for (std::size_t d = 0; d < config_.domains; ++d) {
    const auto domain = static_cast<std::uint32_t>(d);
    // The figure-1 core class objects for this naming domain.
    EnsureCoreHierarchy(kernel_, domain);
    // Vaults first so hosts can list them as compatible.
    std::vector<VaultObject*> domain_vaults;
    for (std::size_t v = 0; v < config_.vaults_per_domain; ++v) {
      VaultSpec vault_spec;
      vault_spec.name = "vault-d" + std::to_string(d) + "-" + std::to_string(v);
      vault_spec.domain = domain;
      vault_spec.capacity_mb = 64 * 1024;
      vault_spec.cost_per_mb = rng_.Uniform(0.0, 0.001);
      auto* vault = kernel_->AddActor<VaultObject>(
          kernel_->minter().Mint(LoidSpace::kVault, domain), vault_spec);
      vaults_.push_back(vault);
      domain_vaults.push_back(vault);
    }

    for (std::size_t h = 0; h < config_.hosts_per_domain; ++h) {
      const Platform& platform =
          config_.heterogeneous
              ? KnownPlatforms()[rng_.Index(KnownPlatforms().size())]
              : KnownPlatforms().front();
      HostSpec spec;
      spec.name = "host-d" + std::to_string(d) + "-" + std::to_string(h);
      spec.arch = platform.arch;
      spec.os_name = platform.os_name;
      spec.os_version = platform.os_version;
      spec.speed_mips = rng_.Uniform(50.0, 500.0);
      spec.memory_mb = static_cast<std::size_t>(rng_.UniformInt(256, 2048));
      spec.cost_per_cpu_second = rng_.Uniform(0.0, 0.01);
      spec.domain = domain;
      spec.reassess_period = config_.reassess_period;
      spec.load = config_.load;
      if (config_.randomize_load_mean) {
        spec.load.mean = rng_.Uniform(0.05, 0.95);
        spec.load.initial = spec.load.mean;
      }
      const std::uint64_t secret = rng_.Next();

      HostObject* host = nullptr;
      const double kind_draw = rng_.UniformDouble();
      const Loid host_loid = kernel_->minter().Mint(LoidSpace::kHost, domain);
      if (kind_draw < config_.maui_fraction) {
        spec.cpus = static_cast<std::uint32_t>(rng_.UniformInt(8, 32));
        auto* maui = kernel_->AddActor<MauiHost>(host_loid, spec, secret);
        maui->StartQueuePolling();
        host = maui;
      } else if (kind_draw < config_.maui_fraction + config_.batch_fraction) {
        spec.cpus = static_cast<std::uint32_t>(rng_.UniformInt(4, 16));
        std::unique_ptr<QueueSystem> queue;
        const double flavor = rng_.UniformDouble();
        const double slots = static_cast<double>(spec.cpus);
        if (flavor < 0.34) {
          queue = std::make_unique<FifoQueue>(slots);
        } else if (flavor < 0.67) {
          queue = std::make_unique<CondorLikeQueue>(slots, 0.02, rng_.Next());
        } else {
          queue = std::make_unique<LoadLevelerLikeQueue>(slots);
        }
        auto* batch = kernel_->AddActor<BatchQueueHost>(
            host_loid, spec, secret, std::move(queue));
        batch->StartQueuePolling();
        host = batch;
      } else if (kind_draw <
                 config_.maui_fraction + config_.batch_fraction +
                     config_.smp_fraction) {
        spec.cpus = static_cast<std::uint32_t>(rng_.UniformInt(4, 16));
        host = kernel_->AddActor<SmpHost>(host_loid, spec, secret);
      } else {
        spec.cpus = 1;
        host = kernel_->AddActor<HostObject>(host_loid, spec, secret);
      }

      for (VaultObject* vault : domain_vaults) {
        host->AddCompatibleVault(vault->loid());
      }
      // Federated: hosts join their domain's sub-Collection over cheap
      // intra-domain links; the sub's delta pushes carry the records to
      // the root across the WAN.
      host->AddCollection(config_.federated
                              ? federation_->sub(domain)->loid()
                              : collection_->loid());
      if (config_.start_reassessment) host->StartReassessment();
      hosts_.push_back(host);
    }
  }
}

HostObject* Metacomputer::FindHost(const Loid& loid) const {
  return dynamic_cast<HostObject*>(kernel_->FindActor(loid));
}

VaultObject* Metacomputer::FindVault(const Loid& loid) const {
  return dynamic_cast<VaultObject*>(kernel_->FindActor(loid));
}

ClassObject* Metacomputer::MakeUniversalClass(const std::string& name,
                                              std::size_t memory_mb,
                                              double cpu_fraction) {
  std::vector<Implementation> implementations;
  for (const Platform& platform : KnownPlatforms()) {
    Implementation impl;
    impl.arch = platform.arch;
    impl.os_name = platform.os_name;
    impl.memory_mb = memory_mb;
    implementations.push_back(std::move(impl));
  }
  return MakeClass(name, std::move(implementations), memory_mb, cpu_fraction);
}

ClassObject* Metacomputer::MakeClass(
    const std::string& name, std::vector<Implementation> implementations,
    std::size_t memory_mb, double cpu_fraction) {
  auto* klass = kernel_->AddActor<ClassObject>(
      Loid(LoidSpace::kClass, 0, next_class_serial_++), name,
      std::move(implementations));
  kernel_->network().RegisterEndpoint(klass->loid(), 0);
  klass->SetInstanceRequirements(memory_mb, cpu_fraction);
  // Default-placement knowledge: every (host, first compatible vault).
  std::vector<std::pair<Loid, Loid>> known;
  for (HostObject* host : hosts_) {
    if (host->spec().domain < config_.domains &&
        !vaults_.empty()) {
      // first vault of the host's domain
      const std::size_t base =
          host->spec().domain * config_.vaults_per_domain;
      if (base < vaults_.size()) {
        known.emplace_back(host->loid(), vaults_[base]->loid());
      }
    }
  }
  klass->SetKnownResources(std::move(known));
  return klass;
}

void Metacomputer::PopulateCollection() {
  for (HostObject* host : hosts_) host->ReassessState();
  // Let the join/update pushes propagate (WAN latency is tens of ms);
  // federated topologies additionally need a full delta-push period for
  // the sub-Collections to sync the root.
  Duration settle = Duration::Seconds(2);
  if (config_.federated) {
    settle = settle + config_.delta_push_period + Duration::Seconds(2);
  }
  kernel_->RunFor(settle);
}

}  // namespace legion
