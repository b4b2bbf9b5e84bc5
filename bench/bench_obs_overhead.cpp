// Flight-recorder overhead (DESIGN.md §12): the same chaos workload run
// with the observability v2 layers off and on.
//
// The design claim is that the recorder, the kernel profiler, and the
// decision audit log are *observers*: enabling them changes nothing the
// simulation computes.  The table makes that auditable -- events,
// messages, RPCs, and placements must be identical down the column --
// and reports what each layer captured (samples, audit records,
// profiled handler labels, high-water marks).  Wall-clock overhead is
// printed after the table but deliberately NOT recorded into the JSON
// mirror: wall time is nondeterministic and every BENCH_*.json must be
// byte-identical across same-seed runs (scripts/chaos_sweep.sh).
//
// The full-instrumentation cell also exports the flight-recorder
// artifacts (timeline, Chrome counter tracks, profile, audit JSONL) --
// deterministic because the kernel's WallClock stays pinned -- which the
// sweep holds to the same byte-identity bar and CI uploads.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/schedulers/irs_scheduler.h"

namespace legion::bench {
namespace {

struct Mode {
  const char* name;
  bool recorder;
  bool audit;
  bool profiler;
};

struct ObsCell {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t rpcs = 0;
  int placements_ok = 0;
  std::size_t samples = 0;
  std::size_t audit_records = 0;
  std::size_t profiled_labels = 0;
  std::size_t queue_hwm = 0;
  std::size_t rpc_hwm = 0;
  double wall_ms = 0.0;  // printed, never recorded (nondeterministic)
};

void WriteFile(const char* path, const std::string& contents) {
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(contents.data(), 1, contents.size(), f);
    std::fclose(f);
    std::printf("[wrote %s]\n", path);
  }
}

ObsCell RunCell(const Mode& mode, int placements, bool export_artifacts) {
  NetworkParams net = QuietNet();
  net.inter_domain_loss = 0.05;
  net.seed = 7300;
  MetacomputerConfig config;
  config.domains = 4;
  config.hosts_per_domain = 4;
  config.heterogeneous = false;
  config.seed = 9500;
  config.load.volatility = 0.0;
  World world = MakeWorld(config, net);
  SimKernel& kernel = *world.kernel;

  EnactorOptions& opts = world->enactor()->options();
  opts.rpc_timeout = Duration::Seconds(2);
  opts.retry.max_attempts = 4;
  opts.retry.base_delay = Duration::Millis(500);
  opts.retry.max_delay = Duration::Seconds(4);
  HealthOptions& health = world->enactor()->health().options();
  health.host_failure_threshold = 3;
  health.domain_failure_threshold = 8;
  health.host_cooldown = Duration::Seconds(30);
  health.domain_cooldown = Duration::Seconds(45);
  // Domain 3 cut off mid-run so breakers open and the audit log records
  // suspect-skips, retries, and fast-fails.
  kernel.network().AddPartition(0, 3, kernel.Now() + Duration::Seconds(20),
                                kernel.Now() + Duration::Seconds(80));

  if (mode.recorder) {
    obs::TimeSeriesRecorder& recorder = kernel.recorder();
    const obs::Labels kernel_labels = {{"component", "kernel"}};
    recorder.WatchCounter("kernel/messages_sent",
                          kernel.metrics().GetCounter("messages_sent",
                                                      kernel_labels));
    recorder.WatchCounter("kernel/rpcs_started",
                          kernel.metrics().GetCounter("rpcs_started",
                                                      kernel_labels));
    recorder.WatchCounter(
        "enactor/reservations_granted",
        kernel.metrics().GetCounter("reservations_granted",
                                    {{"component", "enactor"}}));
    recorder.Watch("kernel/event_queue_depth",
                   [&kernel] { return static_cast<double>(kernel.queue_size()); },
                   /*cumulative=*/false);
    recorder.Start(kernel.Now());
  }
  if (mode.audit) kernel.audit().Enable();
  if (mode.profiler) kernel.profiler().Enable();

  ClassObject* klass = world->MakeUniversalClass("obs_app", 16, 0.1);
  auto* scheduler = world.kernel->AddActor<IrsScheduler>(
      kernel.minter().Mint(LoidSpace::kService, 0),
      world->collection()->loid(), world->enactor()->loid(), 4, 4500);

  ObsCell cell;
  const auto wall_start = std::chrono::steady_clock::now();
  for (int p = 0; p < placements; ++p) {
    bool success = false;
    scheduler->ScheduleAndEnact({{klass->loid(), 4}}, RunOptions{2, 2},
                                [&](Result<RunOutcome> outcome) {
                                  success = outcome.ok() && outcome->success;
                                });
    kernel.RunFor(Duration::Seconds(30));
    if (success) ++cell.placements_ok;
  }
  cell.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();

  cell.events = Count(kernel, "events_run", "kernel");
  cell.messages = Count(kernel, "messages_sent", "kernel");
  cell.rpcs = Count(kernel, "rpcs_started", "kernel");
  cell.samples = kernel.recorder().samples("kernel/messages_sent").size();
  cell.audit_records = kernel.audit().size();
  cell.profiled_labels = kernel.profiler().entries().size();
  cell.queue_hwm = kernel.profiler().queue_depth_high_water();
  cell.rpc_hwm = kernel.profiler().rpc_inflight_high_water();

  if (export_artifacts) {
    WriteFile("TIMELINE_obs_overhead.json", kernel.recorder().ToJson());
    WriteFile("TRACE_obs_overhead.json", kernel.recorder().ToChromeJson());
    WriteFile("PROFILE_obs_overhead.json", kernel.profiler().ToJson());
    WriteFile("AUDIT_obs_overhead.jsonl", kernel.audit().ToJsonl());
    // The C++ explain report for one negotiation; scripts/explain.py
    // must reproduce it byte-for-byte from the JSONL (chaos_sweep.sh
    // cross-checks the two).
    WriteFile("EXPLAIN_obs_overhead.txt",
              kernel.audit().ExplainMapping(2, 0));
  }
  return cell;
}

void RunExperiment() {
  const int placements = SmokePreset() ? 4 : 8;
  const Mode modes[] = {
      {"baseline", false, false, false},
      {"recorder", true, false, false},
      {"audit", false, true, false},
      {"full", true, true, true},
  };

  Table table(
      "Flight-recorder overhead -- same chaos workload, observability "
      "off vs on (4 domains x 4 hosts, partition mid-run)",
      "mode      events  messages   rpcs  placed  samples  audit_recs  "
      "prof_labels  queue_hwm  rpc_hwm");
  table.EnableJson("obs_overhead",
                   {"mode", "events", "messages", "rpcs", "placements_ok",
                    "samples", "audit_records", "profiled_labels",
                    "queue_high_water", "rpc_inflight_high_water"});
  table.Begin();
  std::vector<ObsCell> cells;
  for (const Mode& mode : modes) {
    const bool full = std::string_view(mode.name) == "full";
    ObsCell cell = RunCell(mode, placements, /*export_artifacts=*/full);
    table.Row("%-8s  %6zu  %8zu  %5zu  %6d  %7zu  %10zu  %11zu  %9zu  %7zu",
              {mode.name, cell.events, cell.messages, cell.rpcs,
               cell.placements_ok, cell.samples, cell.audit_records,
               cell.profiled_labels, cell.queue_hwm, cell.rpc_hwm});
    cells.push_back(cell);
  }
  // Observer guarantee: every mode must have computed the same simulation.
  for (const ObsCell& cell : cells) {
    if (cell.events != cells.front().events ||
        cell.messages != cells.front().messages ||
        cell.placements_ok != cells.front().placements_ok) {
      std::fprintf(stderr,
                   "PERTURBATION: observability changed the simulation\n");
      std::exit(1);
    }
  }
  // Wall overhead, text only: nondeterministic, so it must never enter
  // the JSON mirror the sweep byte-compares.
  std::printf("\nwall_ms (not recorded): ");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%s=%.1f", i == 0 ? "" : "  ", modes[i].name,
                cells[i].wall_ms);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunExperiment();
  return 0;
}
