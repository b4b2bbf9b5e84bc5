// Quickstart: build a small metacomputer, schedule an application onto it
// with the IRS scheduler, and watch the full paper pipeline run --
// Collection population (step 1), Collection query (steps 2-3),
// reservation negotiation (steps 4-6), and enactment through the class
// objects (steps 7-11).
#include <cstdio>
#include <fstream>

#include "core/schedulers/irs_scheduler.h"
#include "workload/executor.h"
#include "workload/metacomputer.h"

using namespace legion;

namespace {
bool WriteFile(const char* path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  return static_cast<bool>(out);
}
}  // namespace

int main() {
  // A deterministic simulated metacomputer: 2 administrative domains,
  // 4 hosts and 2 vaults each, heterogeneous platforms, WAN between the
  // domains.
  SimKernel kernel;
  // Record the full causal trace of everything that follows; dumped as
  // Chrome trace_event JSON at the end (open in chrome://tracing or
  // https://ui.perfetto.dev).
  kernel.trace().Enable();
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 4;
  config.vaults_per_domain = 2;
  config.seed = 7;
  Metacomputer metacomputer(&kernel, config);

  std::printf("metacomputer: %zu hosts, %zu vaults, %zu domains\n",
              metacomputer.hosts().size(), metacomputer.vaults().size(),
              config.domains);

  // Step 1: populate the Collection (hosts push their attribute records).
  metacomputer.PopulateCollection();
  std::printf("collection populated: %zu records\n",
              metacomputer.collection()->record_count());

  // A user class that runs on every platform in the topology.
  ClassObject* klass = metacomputer.MakeUniversalClass("my-app", 64, 1.0);

  // An IRS scheduler (figures 8-9): master + variant schedules, feedback
  // driven retries.
  auto* scheduler = kernel.AddActor<IrsScheduler>(
      kernel.minter().Mint(LoidSpace::kService, 0),
      metacomputer.collection()->loid(), metacomputer.enactor()->loid(),
      /*nsched=*/4, /*seed=*/11);

  // Place 4 instances.
  PlacementRequest request{{klass->loid(), 4}};
  bool finished = false;
  RunOutcome outcome;
  scheduler->ScheduleAndEnact(request, RunOptions{3, 2},
                              [&](Result<RunOutcome> r) {
                                finished = true;
                                if (r.ok()) outcome = *r;
                              });
  kernel.Run();

  if (!finished || !outcome.success) {
    std::printf("placement FAILED after %d schedule attempts\n",
                outcome.sched_attempts);
    return 1;
  }

  std::printf("placement succeeded (schedule attempts: %d, enact attempts: %d)\n",
              outcome.sched_attempts, outcome.enact_attempts);
  for (std::size_t i = 0; i < outcome.feedback.reserved_mappings.size(); ++i) {
    const ObjectMapping& mapping = outcome.feedback.reserved_mappings[i];
    const Result<Loid>& instance = outcome.enacted.instances[i];
    std::printf("  instance %zu: %s on %s (vault %s)\n", i,
                instance.ok() ? instance.value().ToString().c_str() : "?",
                mapping.host.ToString().c_str(),
                mapping.vault.ToString().c_str());
  }

  // What did that placement buy us?  Estimate the makespan of a small
  // parameter study over those hosts.
  ApplicationSpec app = MakeParameterStudy(4, /*work=*/5000.0);
  MakespanBreakdown breakdown = EstimateMakespan(
      kernel, app, HostsOfMappings(outcome.feedback.reserved_mappings));
  std::printf("estimated makespan: %.2f s (max host load %.2f)\n",
              breakdown.makespan.seconds(), breakdown.max_host_load);

  const obs::MetricsSnapshot metrics = kernel.metrics().Snapshot();
  auto count = [&](const char* name) {
    return static_cast<unsigned long long>(metrics.counters.at(
        obs::MetricsRegistry::CellKey(name, {{"component", "kernel"}})));
  };
  std::printf("kernel: %llu events, %llu messages (%llu dropped), %llu RPCs\n",
              count("events_run"), count("messages_sent"),
              count("messages_dropped"), count("rpcs_started"));

  // Dump the observability artifacts: the causal trace of the whole run
  // (both Chrome trace_event JSON and raw JSONL) and a metrics snapshot.
  const bool wrote =
      WriteFile("quickstart.trace.json", kernel.trace().ToChromeJson()) &&
      WriteFile("quickstart.trace.jsonl", kernel.trace().ToJsonl()) &&
      WriteFile("quickstart.metrics.json", kernel.metrics().SnapshotJson());
  if (wrote) {
    std::printf(
        "wrote quickstart.trace.json (%zu trace events), "
        "quickstart.trace.jsonl, quickstart.metrics.json\n",
        kernel.trace().events().size());
  } else {
    std::printf("warning: could not write observability artifacts here\n");
  }
  return 0;
}
