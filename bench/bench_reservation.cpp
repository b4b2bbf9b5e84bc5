// Experiment E9 (claim C5): reservation semantics across host substrates.
//
// "Host Object support for reservations is provided irrespective of
// underlying system support for reservations": the Unix host keeps a
// table itself, the plain batch host does the same in front of a queue
// that knows nothing about it (the paper's "unavoidable potential for
// conflict"), and the Maui-like host passes reservations through to a
// calendar-aware queue.  Each host kind receives future-window
// reservations while a competing batch backlog arrives; report grant
// rate, on-time start rate, and conflicts.  Expected shape: grants
// identical across kinds (the interface is uniform); on-time starts near
// 100% for unix and maui; the plain batch host conflicts as backlog
// grows.
#include "bench_util.h"

namespace legion::bench {
namespace {

struct ReservationOutcome {
  int granted = 0;
  int on_time = 0;
  int conflicts = 0;
};

enum class Kind { kUnix, kBatchFifo, kMaui };
const char* Name(Kind kind) {
  switch (kind) {
    case Kind::kUnix: return "unix";
    case Kind::kBatchFifo: return "batch-fifo";
    case Kind::kMaui: return "batch-maui";
  }
  return "?";
}

ReservationOutcome RunCell(Kind kind, int backlog_jobs, int reservations) {
  SimKernel kernel(QuietNet());
  VaultSpec vault_spec;
  vault_spec.domain = 0;
  auto* vault = kernel.AddActor<VaultObject>(
      kernel.minter().Mint(LoidSpace::kVault, 0), vault_spec);

  HostSpec spec;
  spec.name = "probe";
  spec.cpus = 4;
  spec.memory_mb = 8192;
  spec.oversubscription = 1.0;
  spec.load.initial = 0.0;
  spec.load.mean = 0.0;
  spec.load.volatility = 0.0;
  HostObject* host = nullptr;
  switch (kind) {
    case Kind::kUnix:
      host = kernel.AddActor<HostObject>(
          kernel.minter().Mint(LoidSpace::kHost, 0), spec, 11);
      break;
    case Kind::kBatchFifo: {
      auto* batch = kernel.AddActor<BatchQueueHost>(
          kernel.minter().Mint(LoidSpace::kHost, 0), spec, 12,
          std::make_unique<FifoQueue>(4.0), Duration::Seconds(15));
      batch->StartQueuePolling();
      host = batch;
      break;
    }
    case Kind::kMaui: {
      auto* maui = kernel.AddActor<MauiHost>(
          kernel.minter().Mint(LoidSpace::kHost, 0), spec, 13,
          Duration::Seconds(15));
      maui->StartQueuePolling();
      host = maui;
      break;
    }
  }
  host->AddCompatibleVault(vault->loid());

  auto* klass = kernel.AddActor<ClassObject>(
      Loid(LoidSpace::kClass, 0, 500), "job",
      std::vector<Implementation>{});
  kernel.network().RegisterEndpoint(klass->loid(), 0);

  auto submit_job = [&](ReservationToken token, Duration runtime) {
    StartObjectRequest request;
    request.class_loid = klass->loid();
    request.instances.push_back(
        kernel.minter().Mint(LoidSpace::kObject, 0));
    request.token = token;
    request.vault = vault->loid();
    request.memory_mb = 32;
    request.cpu_fraction = 1.0;
    request.estimated_runtime = runtime;
    request.factory = klass->factory();
    const Loid instance = request.instances[0];
    host->StartObject(request, [](Result<std::vector<Loid>>) {});
    return instance;
  };

  // Backlog: long competing jobs without reservations.
  std::vector<Loid> backlog;
  for (int i = 0; i < backlog_jobs; ++i) {
    backlog.push_back(submit_job(ReservationToken{}, Duration::Hours(2)));
  }
  kernel.RunFor(Duration::Seconds(30));

  // Reserved work: each reservation opens in 5 minutes for 30 minutes.
  ReservationOutcome outcome;
  std::vector<std::pair<Loid, SimTime>> reserved;  // instance, window end
  for (int i = 0; i < reservations; ++i) {
    ReservationRequest request;
    request.vault = vault->loid();
    request.start = kernel.Now() + Duration::Minutes(5);
    request.duration = Duration::Minutes(30);
    request.type = ReservationType::OneShotTimesharing();
    request.requester = Loid(LoidSpace::kService, 0, 1);
    request.memory_mb = 32;
    request.cpu_fraction = 1.0;
    Result<ReservationToken> granted(ReservationToken{});
    host->MakeReservation(request,
                          [&](Result<ReservationToken> r) {
                            granted = std::move(r);
                          });
    if (!granted.ok()) continue;
    ++outcome.granted;
    const Loid instance = submit_job(*granted, Duration::Minutes(30));
    reserved.emplace_back(instance,
                          granted->start + granted->duration);
  }

  // Let the windows open; then check who actually started on time.
  kernel.RunFor(Duration::Minutes(10));
  for (const auto& [instance, window_end] : reserved) {
    auto* object = dynamic_cast<LegionObject*>(kernel.FindActor(instance));
    if (object != nullptr && object->active()) ++outcome.on_time;
  }
  // Run past the backlog so late starts register as conflicts.
  kernel.RunFor(Duration::Hours(3));
  if (auto* batch = dynamic_cast<BatchQueueHost*>(host)) {
    outcome.conflicts =
        static_cast<int>(batch->queue().reservation_conflicts());
  }
  return outcome;
}

void RunExperiment() {
  const int reservations = 3;
  Table table("E9 reservation uniformity across host substrates "
              "(4 CPUs, 3 reservations opening at +5min)",
              "host_kind   backlog  granted  started_on_time  conflicts");
  table.EnableJson("reservation", {"host_kind", "backlog", "granted",
                                   "started_on_time", "conflicts"});
  table.Begin();
  for (Kind kind : {Kind::kUnix, Kind::kBatchFifo, Kind::kMaui}) {
    for (int backlog : {0, 4, 12}) {
      ReservationOutcome cell = RunCell(kind, backlog, reservations);
      table.Row("%-10s  %7d  %7d  %15d  %9d",
                {Name(kind), backlog, cell.granted, cell.on_time,
                 cell.conflicts});
    }
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunExperiment();
  return 0;
}
