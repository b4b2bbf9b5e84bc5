// Flight-recorder acceptance (ISSUE 6): a chaos scenario whose breaker
// opens mid-run must leave a decision-audit trail from which
// ExplainMapping reconstructs the full placement story -- the
// suspect-skip, the transient-timeout retry, and the final grant -- and
// every observability export must be byte-identical across same-seed
// runs and must not perturb the simulation it observes.
//
// The scenario (all timing deterministic):
//   domain 0: collection + enactor + scheduler     (control plane)
//   domain 1: host GOOD                            (briefly partitioned)
//   domain 2: host BAD                             (partitioned for good)
// Phase A partitions d0<->d2 and drives reservations at BAD until its
// breaker opens.  Phase B briefly partitions d0<->d1 and schedules one
// instance: the scheduler suspect-skips BAD, aims GOOD, the first
// reservation attempt times out inside the partition window, and the
// retry lands after it heals.
#include <gtest/gtest.h>

#include "core/schedulers/ranked_scheduler.h"
#include "test_world.h"

namespace legion::testing {
namespace {

struct ChaosArtifacts {
  bool phase_a_failed = false;
  bool phase_b_success = false;
  std::uint64_t nid = 0;
  std::uint64_t events = 0;
  std::string metrics;
  std::string timeline;
  std::string trace;
  std::string audit;
  std::string explain;
  std::string good_host;
  std::string bad_host;
};

ChaosArtifacts RunChaos(bool observe) {
  SimKernel kernel;
  auto* collection = kernel.AddActor<CollectionObject>(
      kernel.minter().Mint(LoidSpace::kService, 0));
  kernel.network().RegisterEndpoint(collection->loid(), 0);
  auto* enactor = kernel.AddActor<EnactorObject>(
      kernel.minter().Mint(LoidSpace::kService, 0));

  // Tight, jitter-free timeouts so the phase windows are exact.
  EnactorOptions& opts = enactor->options();
  opts.rpc_timeout = Duration::Seconds(2);
  opts.retry.max_attempts = 3;
  opts.retry.base_delay = Duration::Seconds(2);
  opts.retry.multiplier = 1.0;
  opts.retry.jitter_fraction = 0.0;
  HealthOptions& health = enactor->health().options();
  health.host_failure_threshold = 3;
  health.domain_failure_threshold = 100;  // host breaker tells the story
  health.host_cooldown = Duration::Minutes(30);

  HostObject* hosts[2];
  VaultObject* vaults[2];
  for (int i = 0; i < 2; ++i) {
    const auto domain = static_cast<std::uint32_t>(i + 1);
    VaultSpec vault_spec;
    vault_spec.name = i == 0 ? "vault_good" : "vault_bad";
    vault_spec.domain = domain;
    vaults[i] = kernel.AddActor<VaultObject>(
        kernel.minter().Mint(LoidSpace::kVault, domain), vault_spec);
    HostSpec host_spec;
    host_spec.name = i == 0 ? "GOOD" : "BAD";
    host_spec.cpus = 4;
    host_spec.oversubscription = 2.0;
    host_spec.memory_mb = 1024;
    host_spec.domain = domain;
    host_spec.load.initial = 0.0;
    host_spec.load.mean = 0.0;
    host_spec.load.volatility = 0.0;
    hosts[i] = kernel.AddActor<HostObject>(
        kernel.minter().Mint(LoidSpace::kHost, domain), host_spec,
        /*secret=*/2000 + i);
    hosts[i]->AddCompatibleVault(vaults[i]->loid());
    hosts[i]->AddCollection(collection->loid());
  }
  HostObject* good = hosts[0];
  HostObject* bad = hosts[1];

  std::vector<Implementation> impls;
  Implementation impl;
  impl.arch = "x86";
  impl.os_name = "Linux";
  impls.push_back(impl);
  auto* klass = kernel.AddActor<ClassObject>(Loid(LoidSpace::kClass, 0, 100),
                                             "chaos_app", std::move(impls));
  kernel.network().RegisterEndpoint(klass->loid(), 0);
  klass->SetInstanceRequirements(32, 0.5);
  klass->SetKnownResources({{good->loid(), vaults[0]->loid()},
                            {bad->loid(), vaults[1]->loid()}});

  if (observe) {
    kernel.audit().Enable();
    kernel.profiler().Enable();
    obs::TimeSeriesRecorder& recorder = kernel.recorder();
    recorder.options().sample_period = Duration::Seconds(1);
    recorder.WatchCounter("kernel/messages_sent",
                          kernel.metrics().GetCounter(
                              "messages_sent", {{"component", "kernel"}}));
    recorder.Watch("kernel/queue_depth",
                   [&kernel] { return static_cast<double>(kernel.queue_size()); },
                   /*cumulative=*/false);
    recorder.Start(kernel.Now());
  }

  // Populate the Collection before any partition.
  good->ReassessState();
  bad->ReassessState();
  kernel.RunFor(Duration::Seconds(2));

  // Phase A: cut off BAD and fail reservations at it until the breaker
  // opens (3 attempts x kTimeout = host_failure_threshold).
  kernel.network().AddPartition(0, 2, kernel.Now() + Duration::Seconds(1),
                                kernel.Now() + Duration::Minutes(10));
  kernel.RunFor(Duration::Seconds(2));

  ScheduleRequestList phase_a;
  MasterSchedule master;
  ObjectMapping mapping;
  mapping.class_loid = klass->loid();
  mapping.host = bad->loid();
  mapping.vault = vaults[1]->loid();
  master.mappings.push_back(mapping);
  phase_a.masters.push_back(master);
  Await<ScheduleFeedback> feedback;
  enactor->MakeReservations(phase_a, feedback.Sink());
  kernel.RunFor(Duration::Seconds(20));

  ChaosArtifacts result;
  result.phase_a_failed =
      feedback.Ready() && feedback.Get().ok() && !feedback.Get()->success;

  // Phase B: GOOD briefly unreachable, so the chosen mapping's first
  // attempt times out and the retry lands after the window heals.
  kernel.network().AddPartition(0, 1, kernel.Now() + Duration::Seconds(1),
                                kernel.Now() + Duration::Seconds(5));
  kernel.RunFor(Duration::Seconds(2));
  auto* scheduler = kernel.AddActor<LoadAwareScheduler>(
      kernel.minter().Mint(LoidSpace::kService, 0), collection->loid(),
      enactor->loid());
  Await<RunOutcome> outcome;
  scheduler->ScheduleAndEnact({{klass->loid(), 1}}, RunOptions{},
                              outcome.Sink());
  kernel.RunFor(Duration::Seconds(30));

  result.phase_b_success = outcome.Ready() && outcome.Get().ok() &&
                           outcome.Get()->success;
  if (outcome.Ready() && outcome.Get().ok()) {
    result.nid = outcome.Get()->feedback.negotiation_id;
  }
  result.events = Count(kernel, "events_run", "kernel");
  result.metrics = kernel.metrics().SnapshotJson();
  result.timeline = kernel.recorder().ToJson();
  result.trace = kernel.recorder().ToChromeJson();
  result.audit = kernel.audit().ToJsonl();
  result.explain = kernel.audit().ExplainMapping(result.nid, 0);
  result.good_host = good->loid().ToString();
  result.bad_host = bad->loid().ToString();
  return result;
}

TEST(FlightRecorder, ExplainReconstructsPlacementStory) {
  const ChaosArtifacts run = RunChaos(/*observe=*/true);
  ASSERT_TRUE(run.phase_a_failed);
  ASSERT_TRUE(run.phase_b_success);
  ASSERT_NE(run.nid, 0u);

  // The story names the suspect-skip of the breaker-open host...
  EXPECT_NE(run.explain.find("sched_suspect_skip scheduler=load-aware host=" +
                             run.bad_host + " reason=breaker_open"),
            std::string::npos)
      << run.explain;
  // ...the choice of the healthy host with the policy's rationale...
  EXPECT_NE(run.explain.find("sched_choice"), std::string::npos);
  EXPECT_NE(run.explain.find("host=" + run.good_host), std::string::npos);
  // ...the transient-timeout retry and the final grant, in order...
  const std::size_t requested = run.explain.find("reserve_requested");
  const std::size_t retry = run.explain.find("reserve_retry");
  const std::size_t granted = run.explain.find("reserve_granted");
  ASSERT_NE(requested, std::string::npos) << run.explain;
  ASSERT_NE(retry, std::string::npos) << run.explain;
  ASSERT_NE(granted, std::string::npos) << run.explain;
  EXPECT_LT(requested, retry);
  EXPECT_LT(retry, granted);
  // ...and the outcome.
  EXPECT_NE(run.explain.find("slot 0: granted on " + run.good_host),
            std::string::npos)
      << run.explain;
  EXPECT_NE(run.explain.find("negotiation_success"), std::string::npos);

  // Phase A's breaker history is in the raw audit (separate negotiation).
  EXPECT_NE(run.audit.find("reserve_failed"), std::string::npos);
  EXPECT_NE(run.audit.find("negotiation_failed"), std::string::npos);
}

TEST(FlightRecorder, ExportsAreByteIdenticalAcrossSameSeedRuns) {
  const ChaosArtifacts a = RunChaos(/*observe=*/true);
  const ChaosArtifacts b = RunChaos(/*observe=*/true);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.audit, b.audit);
  EXPECT_EQ(a.explain, b.explain);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_FALSE(a.timeline.find("\"series\"") == std::string::npos);
  EXPECT_NE(a.audit.find("\"kind\":\"sched_suspect_skip\""),
            std::string::npos);
}

TEST(FlightRecorder, ObservabilityDoesNotPerturbTheSimulation) {
  const ChaosArtifacts observed = RunChaos(/*observe=*/true);
  const ChaosArtifacts plain = RunChaos(/*observe=*/false);
  // Recorder + profiler + audit on: identical event count and identical
  // metrics fingerprint (the registry is untouched by all three).
  EXPECT_EQ(observed.events, plain.events);
  EXPECT_EQ(observed.metrics, plain.metrics);
  EXPECT_EQ(observed.phase_b_success, plain.phase_b_success);
  EXPECT_EQ(observed.nid, plain.nid);
  // And the plain run recorded nothing.
  EXPECT_EQ(plain.audit, "");
  EXPECT_EQ(plain.timeline.find("\"t\":"), std::string::npos);
}

}  // namespace
}  // namespace legion::testing
