// Experiment E8 (claim C8): trigger -> Monitor -> migration
// responsiveness.
//
// A host's load spikes (the workstation owner sits down); the RGE
// trigger fires at the next reassessment, the Monitor's outcall crosses
// the network, and the reschedule handler migrates the victim object to
// the least-loaded host.  Sweep the reassessment (trigger evaluation)
// period and the OPR size; report time-to-migrate from the spike.
// Expected shape: responsiveness tracks the reassessment period (the
// detection term dominates); OPR size adds the vault-to-vault transfer
// term.
#include "bench_util.h"
#include "core/migration.h"
#include "core/monitor.h"

namespace legion::bench {
namespace {

// A user object with a fat body, to weigh the OPR.
class PayloadObject : public LegionObject {
 public:
  PayloadObject(SimKernel* kernel, Loid loid, Loid class_loid,
                std::size_t payload_bytes)
      : LegionObject(kernel, loid, class_loid),
        payload_(payload_bytes, 0x5A) {}

 protected:
  void SerializeBody(ByteWriter& writer) const override {
    writer.WriteU32(static_cast<std::uint32_t>(payload_.size()));
    for (std::uint8_t b : payload_) writer.WriteU8(b);
  }
  Status DeserializeBody(ByteReader& reader) override {
    auto n = reader.ReadU32();
    if (!n) return n.status();
    payload_.assign(*n, 0);
    for (std::uint32_t i = 0; i < *n; ++i) {
      auto b = reader.ReadU8();
      if (!b) return b.status();
      payload_[i] = *b;
    }
    return Status::Ok();
  }

 private:
  std::vector<std::uint8_t> payload_;
};

struct MigrationResult {
  double detect_ms = 0.0;    // spike -> monitor notification
  double migrate_ms = 0.0;   // spike -> object active elsewhere
  double success = 0.0;
};

MigrationResult RunCell(Duration reassess_period, std::size_t opr_bytes,
                        int rounds) {
  MigrationResult result;
  for (int round = 0; round < rounds; ++round) {
    MetacomputerConfig config;
    config.domains = 2;
    config.hosts_per_domain = 4;
    config.heterogeneous = false;
    config.seed = 8800 + round;
    config.load.volatility = 0.0;
    config.load.initial = 0.2;
    config.load.mean = 0.2;
    config.reassess_period = reassess_period;
    config.start_reassessment = true;
    World world = MakeWorld(config);

    ClassObject* klass = world->MakeUniversalClass("victim", 64, 1.0);
    const Loid class_loid = klass->loid();
    // Place the victim (with a payload body) on host 0.
    HostObject* origin = world->hosts()[0];
    StartObjectRequest request;
    request.class_loid = class_loid;
    request.instances.push_back(
        world.kernel->minter().Mint(LoidSpace::kObject, 0));
    request.vault = world->vaults()[0]->loid();
    request.memory_mb = 64;
    request.cpu_fraction = 1.0;
    request.factory = [class_loid, opr_bytes](SimKernel* kernel,
                                              const Loid& instance) {
      return std::make_unique<PayloadObject>(kernel, instance, class_loid,
                                             opr_bytes);
    };
    const Loid object = request.instances[0];
    bool started = false;
    origin->StartObject(request, [&](Result<std::vector<Loid>> r) {
      started = r.ok();
    });
    world.kernel->RunFor(Duration::Seconds(1));
    if (!started) continue;

    MonitorObject* monitor = world->monitor();
    monitor->WatchLoadThreshold(origin, 2.0);
    SimTime spike_time;
    SimTime detect_time;
    SimTime done_time;
    bool migrated = false;
    monitor->SetRescheduleHandler([&](const RgeEvent&) {
      detect_time = world.kernel->Now();
      // Move to host 4 (other domain) and its vault.
      MigrateObject(world.kernel.get(), monitor->loid(), object,
                    world->hosts()[4]->loid(), world->vaults()[2]->loid(),
                    [&](Result<MigrationOutcome> outcome) {
                      migrated = outcome.ok() && outcome->success;
                      done_time = world.kernel->Now();
                    });
    });
    // Spike the background load *without* triggering an immediate
    // reassessment: detection waits for the periodic trigger pass.
    world.kernel->RunFor(Duration::Seconds(2));
    spike_time = world.kernel->Now();
    origin->mutable_attributes().Set("marker", 1);  // no-op touch
    // Raise load directly on the model; next ReassessState exports it.
    origin->SpikeLoadQuietly(3.0);
    world.kernel->RunFor(reassess_period + Duration::Minutes(2));
    if (!migrated) continue;
    result.detect_ms += (detect_time - spike_time).millis();
    result.migrate_ms += (done_time - spike_time).millis();
    result.success += 1.0;
  }
  const double n = std::max(result.success, 1.0);
  result.detect_ms /= n;
  result.migrate_ms /= n;
  result.success = 100.0 * result.success / rounds;
  return result;
}

void RunExperiment() {
  const int rounds = 5;
  Table table("E8 trigger-to-migration responsiveness (8 hosts, spike on "
              "host 0, 5 rounds)",
              "reassess_s  opr_kb  success%  detect_ms  migrate_ms");
  table.EnableJson("migration", {"reassess_s", "opr_kb", "success_pct",
                                 "detect_ms", "migrate_ms"});
  table.Begin();
  for (double reassess_s : {1.0, 5.0, 15.0, 60.0}) {
    for (std::size_t opr_kb : {4UL, 1024UL}) {
      MigrationResult cell =
          RunCell(Duration::Seconds(reassess_s), opr_kb * 1024, rounds);
      table.Row("%10.0f  %6zu  %7.0f%%  %9.1f  %10.1f",
                {reassess_s, opr_kb, cell.success, cell.detect_ms,
                 cell.migrate_ms});
    }
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunExperiment();
  return 0;
}
