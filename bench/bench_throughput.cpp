// Experiment E11: system throughput and turnaround under offered load.
//
// The paper's opening claim: managing metacomputer resources "is
// necessary to efficiently and economically execute user programs" (§1),
// with users optimizing "application throughput, turnaround time, or
// cost".  This harness offers a Poisson stream of small parallel
// applications at increasing rates and compares schedulers on the
// user-visible outcomes: acceptance, mean/p95 turnaround, and dollars.
// Expected shape: at low load all schedulers are equivalent; as load
// approaches capacity the state-aware scheduler sustains acceptance and
// bounded turnaround longer than the random default (which keeps
// colliding with already-full hosts).
#include "bench_util.h"
#include "core/schedulers/random_scheduler.h"
#include "core/schedulers/ranked_scheduler.h"
#include "workload/arrivals.h"
#include "workload/session.h"

namespace legion::bench {
namespace {

SessionStats RunCell(bool load_aware, double arrivals_per_minute) {
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 8;
  config.heterogeneous = false;
  config.seed = 321;
  config.load.initial = 0.1;
  config.load.mean = 0.1;
  config.load.volatility = 0.05;
  World world = MakeWorld(config);

  SchedulerObject* scheduler;
  if (load_aware) {
    scheduler = world.kernel->AddActor<LoadAwareScheduler>(
        world.kernel->minter().Mint(LoidSpace::kService, 0),
        world->collection()->loid(), world->enactor()->loid());
  } else {
    scheduler = world.kernel->AddActor<RandomScheduler>(
        world.kernel->minter().Mint(LoidSpace::kService, 0),
        world->collection()->loid(), world->enactor()->loid(), 17);
  }
  WorkloadSession session(world.metacomputer.get(), scheduler);

  // Each app: 4 instances x ~2000 MIPS-s, full-CPU -- a few minutes of
  // work on mid-range hosts.
  ApplicationSpec app = MakeParameterStudy(4, 2000.0);
  app.cpu_fraction_per_instance = 1.0;
  Rng rng(1000 + static_cast<std::uint64_t>(arrivals_per_minute * 10));
  const Duration horizon = Duration::Hours(2);
  auto arrivals = PoissonArrivals(rng, arrivals_per_minute / 60.0,
                                  world.kernel->Now(), horizon);
  // Refresh records periodically so the load-aware scheduler sees state.
  for (auto* host : world->hosts()) host->StartReassessment();
  session.SubmitAt(app, arrivals);
  world.kernel->RunFor(horizon + Duration::Hours(1));

  return session.Stats(horizon);
}

// ---- E12: flat vs batched reservation negotiation -------------------------
//
// The batched pipeline (DESIGN.md §11) coalesces a round's same-host
// reservation requests into ReserveBatch RPCs.  This sweep places a
// large round-robin master schedule directly through the Enactor and
// compares RPC count, wire bytes, and simulated time-to-feedback across
// batch caps, with sender-uplink serialization on so a flood of small
// RPCs actually pays for its burst.
struct BatchCellResult {
  bool ok = false;
  double place_s = 0.0;        // sim seconds, MakeReservations -> feedback
  std::uint64_t rpcs = 0;      // kernel rpcs_started
  std::uint64_t bytes = 0;     // kernel bytes_sent
  std::uint64_t batches = 0;   // enactor batches_sent (0 on the flat path)
  std::uint64_t parked = 0;    // slots parked by backpressure
};

BatchCellResult RunBatchCell(std::size_t objects, std::size_t cap,
                             int wan_ms) {
  MetacomputerConfig config;
  config.domains = 4;
  config.hosts_per_domain = 16;
  config.vaults_per_domain = 1;
  config.heterogeneous = false;
  config.seed = 777;
  config.load.initial = 0.0;
  config.load.mean = 0.0;
  config.load.volatility = 0.0;
  NetworkParams net = QuietNet();
  net.serialize_uplink = true;
  net.inter_domain_latency = Duration::Millis(wan_ms);
  World world = MakeWorld(config, net);
  world->enactor()->options().max_batch_size = cap;

  // Tiny timeshared instances so thousands fit: 1 MB, 2% of a CPU.
  ClassObject* klass = world->MakeUniversalClass("bulk", 1, 0.02);

  // Round-robin master schedule over every host, each mapping using the
  // host's domain vault.
  const auto& hosts = world->hosts();
  std::vector<Loid> domain_vault(config.domains);
  for (auto* vault : world->vaults()) {
    domain_vault[vault->spec().domain] = vault->loid();
  }
  ScheduleRequestList request;
  request.masters.emplace_back();
  MasterSchedule& master = request.masters.back();
  for (std::size_t i = 0; i < objects; ++i) {
    HostObject* host = hosts[i % hosts.size()];
    ObjectMapping mapping;
    mapping.class_loid = klass->loid();
    mapping.host = host->loid();
    mapping.vault = domain_vault[host->spec().domain];
    master.mappings.push_back(mapping);
  }

  world.kernel->metrics().Reset();
  BatchCellResult result;
  const SimTime t0 = world.kernel->Now();
  SimTime t1 = t0;
  world->enactor()->MakeReservations(
      request, [&](Result<ScheduleFeedback> feedback) {
        result.ok = feedback.ok() && feedback->success;
        t1 = world.kernel->Now();
      });
  world.kernel->RunFor(Duration::Minutes(10));

  result.place_s = (t1 - t0).seconds();
  const SimKernel& kernel = *world.kernel;
  result.rpcs = Count(kernel, "rpcs_started", "kernel");
  result.bytes = Count(kernel, "bytes_sent", "kernel");
  result.batches = Count(kernel, "batches_sent", "enactor");
  result.parked = Count(kernel, "requests_parked", "enactor");
  return result;
}

void RunBatchExperiment() {
  Table table("E12 flat vs batched reservation negotiation -- round-robin "
              "placement over 64 hosts in 4 domains, serialized uplinks",
              "objects  batch_cap  wan_ms  ok  place_s  rpcs  kbytes  "
              "batches  parked");
  table.EnableJson("throughput_batch",
                   {"objects", "batch_cap", "wan_ms", "ok", "place_s", "rpcs",
                    "kbytes", "batches", "parked"});
  table.Begin();
  const std::vector<std::size_t> object_counts =
      SmokePreset() ? std::vector<std::size_t>{2000}
                    : std::vector<std::size_t>{2000, 10000};
  const std::vector<std::size_t> caps =
      SmokePreset() ? std::vector<std::size_t>{1, 64, 256}
                    : std::vector<std::size_t>{1, 16, 64, 256};
  const std::vector<int> wans =
      SmokePreset() ? std::vector<int>{30} : std::vector<int>{30, 120};
  for (std::size_t objects : object_counts) {
    for (int wan_ms : wans) {
      for (std::size_t cap : caps) {
        const BatchCellResult r = RunBatchCell(objects, cap, wan_ms);
        table.Row("%7zu  %9zu  %6d  %2s  %7.3f  %5zu  %6zu  %7zu  %6zu",
                  {objects, cap, wan_ms, r.ok ? "y" : "n", r.place_s, r.rpcs,
                   r.bytes / 1024, r.batches, r.parked});
      }
    }
  }
}

void RunExperiment() {
  Table table("E11 throughput under offered load -- 4x2000 MIPS-s apps, "
              "16 hosts, 2 h of Poisson arrivals",
              "scheduler   arrivals/min  offered  placed%  mean_tat_s  "
              "p95_tat_s  done/hour  dollars");
  table.EnableJson("throughput",
                   {"scheduler", "arrivals_per_min", "offered", "placed_pct",
                    "mean_turnaround_s", "p95_turnaround_s", "done_per_hour",
                    "dollars"});
  table.Begin();
  for (double rate : {0.5, 1.0, 2.0, 4.0}) {
    for (bool load_aware : {false, true}) {
      const SessionStats stats = RunCell(load_aware, rate);
      table.Row("%-10s  %12.1f  %7zu  %6.0f%%  %10.1f  %9.1f  %9.1f  %7.3f",
                {load_aware ? "load-aware" : "random", rate, stats.offered,
                 stats.offered > 0
                     ? 100.0 * static_cast<double>(stats.placed) /
                           static_cast<double>(stats.offered)
                     : 0.0,
                 stats.mean_turnaround_s, stats.p95_turnaround_s,
                 stats.throughput_per_hour, stats.total_dollars});
    }
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunExperiment();
  legion::bench::RunBatchExperiment();
  return 0;
}
