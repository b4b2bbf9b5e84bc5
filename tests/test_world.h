// Shared fixtures: small deterministic worlds for unit and integration
// tests.  TestWorld wires one kernel with a handful of hosts/vaults, a
// Collection, and an Enactor -- the minimum the RMI protocol needs.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/collection.h"
#include "core/enactor.h"
#include "objects/class_object.h"
#include "resources/host_object.h"
#include "resources/vault_object.h"
#include "sim/kernel.h"

namespace legion::testing {

struct TestWorldConfig {
  std::size_t hosts = 3;
  std::size_t domains = 1;
  std::uint32_t cpus = 4;
  double oversubscription = 2.0;
  NetworkParams net;
  bool quiet_load = true;  // zero background load for determinism
};

class TestWorld {
 public:
  explicit TestWorld(TestWorldConfig config = {})
      : kernel(config.net), config_(config) {
    collection = kernel.AddActor<CollectionObject>(
        kernel.minter().Mint(LoidSpace::kService, 0));
    enactor = kernel.AddActor<EnactorObject>(
        kernel.minter().Mint(LoidSpace::kService, 0));
    for (std::size_t i = 0; i < config.hosts; ++i) {
      const auto domain =
          static_cast<std::uint32_t>(i % std::max<std::size_t>(1, config.domains));
      VaultSpec vault_spec;
      vault_spec.name = "vault" + std::to_string(i);
      vault_spec.domain = domain;
      auto* vault = kernel.AddActor<VaultObject>(
          kernel.minter().Mint(LoidSpace::kVault, domain), vault_spec);
      vaults.push_back(vault);

      HostSpec host_spec;
      host_spec.name = "host" + std::to_string(i);
      host_spec.cpus = config.cpus;
      host_spec.oversubscription = config.oversubscription;
      host_spec.memory_mb = 1024;
      host_spec.domain = domain;
      if (config.quiet_load) {
        host_spec.load.initial = 0.0;
        host_spec.load.mean = 0.0;
        host_spec.load.volatility = 0.0;
      }
      auto* host = kernel.AddActor<HostObject>(
          kernel.minter().Mint(LoidSpace::kHost, domain), host_spec,
          /*secret=*/1000 + i);
      host->AddCompatibleVault(vault->loid());
      host->AddCollection(collection->loid());
      hosts.push_back(host);
    }
  }

  // Pushes all host records and delivers the messages.
  void Populate() {
    for (auto* host : hosts) host->ReassessState();
    kernel.RunFor(Duration::Seconds(2));
  }

  ClassObject* MakeClass(const std::string& name, std::size_t memory_mb = 32,
                         double cpu_fraction = 1.0) {
    std::vector<Implementation> impls;
    Implementation impl;
    impl.arch = "x86";
    impl.os_name = "Linux";
    impls.push_back(impl);
    auto* klass = kernel.AddActor<ClassObject>(
        Loid(LoidSpace::kClass, 0, next_class_serial_++), name,
        std::move(impls));
    kernel.network().RegisterEndpoint(klass->loid(), 0);
    klass->SetInstanceRequirements(memory_mb, cpu_fraction);
    std::vector<std::pair<Loid, Loid>> known;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      known.emplace_back(hosts[i]->loid(), vaults[i]->loid());
    }
    klass->SetKnownResources(std::move(known));
    return klass;
  }

  // Drains in-flight control messages (a couple of simulated minutes is
  // plenty for any RPC chain, and short enough that reservations granted
  // during the test do not hit their confirmation timeouts).
  void Run() { kernel.RunFor(Duration::Minutes(2)); }

  SimKernel kernel;
  CollectionObject* collection = nullptr;
  EnactorObject* enactor = nullptr;
  std::vector<HostObject*> hosts;
  std::vector<VaultObject*> vaults;

 private:
  TestWorldConfig config_;
  std::uint64_t next_class_serial_ = 100;
};

// Reads the registry counter `name{labels}`.  A cell that does not exist
// fails the test, so a misspelt name cannot read as 0.
inline std::uint64_t Count(const SimKernel& kernel, std::string_view name,
                           const obs::Labels& labels) {
  const obs::MetricsSnapshot snapshot = kernel.metrics().Snapshot();
  const std::string key = obs::MetricsRegistry::CellKey(name, labels);
  const auto it = snapshot.counters.find(key);
  if (it == snapshot.counters.end()) {
    ADD_FAILURE() << "no counter " << key;
    return 0;
  }
  return it->second;
}

// Reads the registry counter `name{component=<component>}`.
inline std::uint64_t Count(const SimKernel& kernel, std::string_view name,
                           const std::string& component) {
  return Count(kernel, name, obs::Labels{{"component", component}});
}

// The field keys, in order, of every audit record of `kind`.
inline std::vector<std::vector<std::string>> AuditKeys(
    const obs::DecisionLog& log, std::string_view kind) {
  std::vector<std::vector<std::string>> keys;
  for (const obs::AuditRecord& record : log.records()) {
    if (record.kind != kind) continue;
    keys.emplace_back();
    for (const obs::TraceArg& field : record.fields) {
      keys.back().push_back(field.key);
    }
  }
  return keys;
}

// Synchronously drains a callback-style call: runs the kernel until the
// callback fires or the horizon passes.
template <typename T>
class Await {
 public:
  Callback<T> Sink() {
    return [this](Result<T> r) {
      result_ = std::make_unique<Result<T>>(std::move(r));
    };
  }
  bool Ready() const { return result_ != nullptr; }
  Result<T>& Get() {
    EXPECT_TRUE(Ready()) << "callback never fired";
    return *result_;
  }

 private:
  std::unique_ptr<Result<T>> result_;
};

}  // namespace legion::testing
