// Experiment E7 (claim C7): co-allocation across administrative domains.
//
// "Note that this may require the Enactor to negotiate with several
// resources from different administrative domains to perform
// co-allocation."  Sweep the number of domains a schedule spans and the
// inter-domain RTT; report negotiation latency (the co-allocation is
// atomic: it completes when the slowest domain answers) and success
// under WAN message loss.  Expected shape: latency tracks the max RTT,
// not the sum; loss costs wide spans more, since a lost message costs
// an RPC timeout before the per-mapping retry recovers it.
#include <algorithm>

#include "bench_util.h"

namespace legion::bench {
namespace {

struct CoAllocationResult {
  double latency_ms = 0.0;
  double success = 0.0;
};

CoAllocationResult RunCell(std::size_t span_domains, Duration wan_latency,
                           double loss, int rounds) {
  CoAllocationResult result;
  for (int round = 0; round < rounds; ++round) {
    NetworkParams net = QuietNet();
    net.inter_domain_latency = wan_latency;
    net.inter_domain_loss = loss;
    net.seed = 300 + round;
    MetacomputerConfig config;
    config.domains = 8;
    config.hosts_per_domain = 2;
    config.heterogeneous = false;
    config.seed = 6200 + round;
    config.load.volatility = 0.0;
    World world = MakeWorld(config, net);
    world->enactor()->options().rpc_timeout = Duration::Seconds(10);
    ClassObject* klass = world->MakeUniversalClass("spread", 16, 0.1);

    // One mapping in each of `span_domains` domains (domain 0 first: the
    // enactor lives there).
    ScheduleRequestList request;
    MasterSchedule master;
    for (std::size_t d = 0; d < span_domains; ++d) {
      for (auto* host : world->hosts()) {
        if (host->spec().domain != d) continue;
        ObjectMapping mapping;
        mapping.class_loid = klass->loid();
        mapping.host = host->loid();
        // first vault of that domain
        mapping.vault =
            world->vaults()[d * config.vaults_per_domain]->loid();
        master.mappings.push_back(mapping);
        break;
      }
    }
    request.masters.push_back(master);

    const SimTime started = world.kernel->Now();
    bool success = false;
    SimTime finished = started;
    world->enactor()->MakeReservations(
        request, [&](Result<ScheduleFeedback> feedback) {
          success = feedback.ok() && feedback->success;
          finished = world.kernel->Now();
        });
    world.kernel->RunFor(Duration::Minutes(2));
    result.latency_ms += (finished - started).millis();
    result.success += success ? 1.0 : 0.0;
  }
  result.latency_ms /= rounds;
  result.success = 100.0 * result.success / rounds;
  return result;
}

void RunExperiment() {
  const int rounds = 10;
  Table table("E7 co-allocation across domains -- one reservation per "
              "domain, atomic commit (10 rounds)",
              "domains  wan_rtt_ms  loss%  success%  negotiate_ms");
  table.EnableJson("coallocation", {"domains", "wan_rtt_ms", "loss_pct",
                                    "success_pct", "negotiate_ms"});
  table.Begin();
  for (std::size_t span : {1UL, 2UL, 4UL, 8UL}) {
    for (double wan_ms : {10.0, 50.0, 200.0}) {
      for (double loss : {0.0, 0.05}) {
        CoAllocationResult cell =
            RunCell(span, Duration::Millis(static_cast<int64_t>(wan_ms)),
                    loss, rounds);
        table.Row("%7zu  %10.0f  %5.0f  %7.0f%%  %12.1f",
                  {span, wan_ms, loss * 100.0, cell.success,
                   cell.latency_ms});
      }
    }
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunExperiment();
  return 0;
}
