// Ablations of the design choices DESIGN.md calls out:
//   A1  variant depth (IRS nsched): how much schedule redundancy buys
//       success under contention, and what it costs in reservations;
//   A2  timesharing oversubscription: admission headroom vs the
//       multiplexing slowdown running objects actually experience;
//   A3  confirmation timeout: too short and reservations expire before
//       enactment, too long and unconfirmed reservations squat on
//       capacity that other applications want;
//   A4  implementation caches (paper §2 service objects): cold vs warm
//       start latency, cache on vs off.
#include "bench_util.h"
#include "core/impl_cache.h"
#include "core/schedulers/irs_scheduler.h"
#include "workload/executor.h"

namespace legion::bench {
namespace {

// ---- A1: variant depth --------------------------------------------------------

void RunVariantDepth() {
  Table table("A1 variant depth (IRS nsched) under contention "
              "(16 hosts, 6 refusing, k=6, 25 trials)",
              "nsched  success%  reservations/run  variants_applied/run");
  table.EnableJson("ablation_a1", {"nsched", "success_pct",
                                   "reservations_per_run",
                                   "variants_applied_per_run"});
  table.Begin();
  const int trials = 25;
  for (std::size_t nsched : {1UL, 2UL, 3UL, 4UL, 6UL, 10UL}) {
    int successes = 0;
    std::uint64_t reservations = 0;
    std::uint64_t variants_applied = 0;
    for (int trial = 0; trial < trials; ++trial) {
      MetacomputerConfig config;
      config.domains = 2;
      config.hosts_per_domain = 8;
      config.heterogeneous = false;
      config.seed = 11000 + trial;
      config.load.volatility = 0.0;
      World world = MakeWorld(config);
      for (std::size_t i = 0; i < 6; ++i) {
        world->hosts()[i]->SetPolicy(std::make_unique<DomainRefusalPolicy>(
            std::vector<std::uint32_t>{0}));
      }
      ClassObject* klass = world->MakeUniversalClass("app");
      auto* scheduler = world.kernel->AddActor<IrsScheduler>(
          world.kernel->minter().Mint(LoidSpace::kService, 0),
          world->collection()->loid(), world->enactor()->loid(), nsched,
          500 + trial);
      bool success = false;
      std::size_t applied = 0;
      scheduler->ScheduleAndEnact(
          {{klass->loid(), 6}}, RunOptions{1, 1},
          [&](Result<RunOutcome> outcome) {
            success = outcome.ok() && outcome->success;
            if (success && outcome->feedback.winner.has_value()) {
              applied = outcome->feedback.winner->variant_indices.size();
            }
          });
      world.kernel->RunFor(Duration::Minutes(5));
      successes += success ? 1 : 0;
      variants_applied += applied;
      reservations +=
          Count(*world.kernel, "reservations_requested", "enactor");
    }
    table.Row("%6zu  %7.0f%%  %16.1f  %20.2f",
              {nsched, 100.0 * successes / trials,
               static_cast<double>(reservations) / trials,
               static_cast<double>(variants_applied) / trials});
  }
}

// ---- A2: oversubscription -----------------------------------------------------

void RunOversubscription() {
  Table table("A2 timesharing oversubscription -- admission vs effective "
              "speed (1 host, 4 CPUs, 12 one-CPU applicants)",
              "oversub  admitted  effective_speed_frac");
  table.EnableJson("ablation_a2",
                   {"oversub", "admitted", "effective_speed_frac"});
  table.Begin();
  for (double oversub : {1.0, 2.0, 3.0, 4.0}) {
    SimKernel kernel(QuietNet());
    VaultSpec vault_spec;
    auto* vault = kernel.AddActor<VaultObject>(
        kernel.minter().Mint(LoidSpace::kVault, 0), vault_spec);
    HostSpec spec;
    spec.cpus = 4;
    spec.memory_mb = 8192;
    spec.oversubscription = oversub;
    spec.speed_mips = 100.0;
    spec.load.initial = 0.0;
    spec.load.mean = 0.0;
    spec.load.volatility = 0.0;
    auto* host = kernel.AddActor<HostObject>(
        kernel.minter().Mint(LoidSpace::kHost, 0), spec, 3);
    host->AddCompatibleVault(vault->loid());
    auto* klass = kernel.AddActor<ClassObject>(
        Loid(LoidSpace::kClass, 0, 600), "job",
        std::vector<Implementation>{});
    kernel.network().RegisterEndpoint(klass->loid(), 0);

    int admitted = 0;
    for (int i = 0; i < 12; ++i) {
      StartObjectRequest request;
      request.class_loid = klass->loid();
      request.instances.push_back(
          kernel.minter().Mint(LoidSpace::kObject, 0));
      request.vault = vault->loid();
      request.memory_mb = 32;
      request.cpu_fraction = 1.0;
      request.factory = klass->factory();
      host->StartObject(request, [&](Result<std::vector<Loid>> started) {
        if (started.ok()) ++admitted;
      });
    }
    table.Row("%7.1f  %8d  %20.2f",
              {oversub, admitted,
               host->EffectiveSpeedPerObject() / spec.speed_mips});
  }
}

// ---- A3: confirmation timeout ---------------------------------------------------

void RunConfirmTimeout() {
  Table table("A3 confirmation timeout -- enactment delayed 3 min after "
              "make_reservations (16 hosts, k=4)",
              "confirm_timeout_s  enact_ok  capacity_held_meanwhile");
  table.EnableJson("ablation_a3", {"confirm_timeout_s", "enact_ok",
                                   "capacity_held_meanwhile"});
  table.Begin();
  for (double timeout_s : {30.0, 60.0, 300.0, 1800.0}) {
    MetacomputerConfig config;
    config.domains = 2;
    config.hosts_per_domain = 8;
    config.heterogeneous = false;
    config.seed = 13000;
    config.load.volatility = 0.0;
    World world = MakeWorld(config);
    world->enactor()->options().confirm_timeout =
        Duration::Seconds(timeout_s);
    ClassObject* klass = world->MakeUniversalClass("slowpoke");
    auto* scheduler = world.kernel->AddActor<IrsScheduler>(
        world.kernel->minter().Mint(LoidSpace::kService, 0),
        world->collection()->loid(), world->enactor()->loid(), 4, 77);

    // Phase 1: reservations only.
    ScheduleFeedback feedback;
    scheduler->ComputeSchedule(
        {{klass->loid(), 4}}, [&](Result<ScheduleRequestList> schedule) {
          if (!schedule.ok()) return;
          world->enactor()->MakeReservations(
              *schedule, [&](Result<ScheduleFeedback> r) {
                if (r.ok()) feedback = *r;
              });
        });
    world.kernel->RunFor(Duration::Seconds(30));
    if (!feedback.success) {
      table.Row("%17.0f  %8s  %24s", {timeout_s, "n/a", "n/a"});
      continue;
    }
    // How much capacity the unconfirmed reservations hold mid-delay
    // (force lazy expiry first so the count reflects the timeout).
    world.kernel->RunFor(Duration::Seconds(60));
    std::size_t held = 0;
    for (auto* host : world->hosts()) {
      host->mutable_reservations().ExpireStale(world.kernel->Now());
      held += host->reservations().live_count();
    }
    // Phase 2: enact after a 3-minute pause (the scheduler was "thinking").
    world.kernel->RunFor(Duration::Seconds(120));
    bool enact_ok = false;
    world->enactor()->EnactSchedule(feedback, [&](Result<EnactResult> r) {
      enact_ok = r.ok() && r->success;
    });
    world.kernel->RunFor(Duration::Minutes(2));
    table.Row("%17.0f  %8s  %24zu",
              {timeout_s, enact_ok ? "yes" : "NO", held});
  }
}

// ---- A4: implementation cache ----------------------------------------------------

void RunImplCache() {
  Table table("A4 implementation cache (8 MiB binary, LAN cache) -- start "
              "latency",
              "configuration      first_start_ms  second_start_ms");
  table.EnableJson("ablation_a4",
                   {"configuration", "first_start_ms", "second_start_ms"});
  table.Begin();
  for (bool cached : {false, true}) {
    SimKernel kernel(QuietNet());
    VaultSpec vault_spec;
    auto* vault = kernel.AddActor<VaultObject>(
        kernel.minter().Mint(LoidSpace::kVault, 0), vault_spec);
    HostSpec spec;
    spec.cpus = 4;
    spec.load.initial = 0.0;
    spec.load.mean = 0.0;
    spec.load.volatility = 0.0;
    auto* host = kernel.AddActor<HostObject>(
        kernel.minter().Mint(LoidSpace::kHost, 0), spec, 5);
    host->AddCompatibleVault(vault->loid());
    std::vector<Implementation> impls;
    Implementation impl;
    impl.arch = "x86";
    impl.os_name = "Linux";
    impl.binary_bytes = 8 << 20;
    impls.push_back(impl);
    auto* klass = kernel.AddActor<ClassObject>(
        Loid(LoidSpace::kClass, 0, 700), "app", impls);
    kernel.network().RegisterEndpoint(klass->loid(), 0);
    ImplementationCacheObject* cache = nullptr;
    if (cached) {
      cache = kernel.AddActor<ImplementationCacheObject>(
          kernel.minter().Mint(LoidSpace::kService, 0), 0);
      host->SetImplementationCache(cache->loid());
    }
    auto start_once = [&]() -> double {
      StartObjectRequest request;
      request.class_loid = klass->loid();
      request.instances.push_back(
          kernel.minter().Mint(LoidSpace::kObject, 0));
      request.vault = vault->loid();
      request.memory_mb = 16;
      request.cpu_fraction = 0.1;
      request.implementation = "x86/Linux";
      request.binary_bytes = 8 << 20;
      request.factory = klass->factory();
      const SimTime begun = kernel.Now();
      SimTime ended = begun;
      host->StartObject(request, [&](Result<std::vector<Loid>>) {
        ended = kernel.Now();
      });
      kernel.RunFor(Duration::Minutes(2));
      return (ended - begun).millis();
    };
    const double first = start_once();
    const double second = start_once();
    table.Row("%-17s  %14.1f  %15.1f",
              {cached ? "with-cache" : "no-cache", first, second});
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunVariantDepth();
  legion::bench::RunOversubscription();
  legion::bench::RunConfirmTimeout();
  legion::bench::RunImplCache();
  return 0;
}
