// Federated Collection sweep (DESIGN.md §10): domains x delta-push
// period x WAN loss -> query latency / staleness / message volume,
// federated hierarchy vs the flat single-Collection baseline.
//
// The paper (§3.2) lets Collections "be organized in a hierarchy" so no
// single attribute database must describe the whole grid.  This harness
// quantifies what the hierarchy buys at fixed grid size (total hosts
// constant while the domain count grows):
//
//   scoped_ms    mean sim-latency of a domain-restricted query.  Flat:
//                every query crosses the WAN to the central Collection.
//                Federated: the owning sub-Collection answers on
//                intra-domain links, independent of grid size.
//   global_ms    mean sim-latency of a grid-wide query against the
//                aggregate (the root's bounded-staleness answer).  Stays
//                flat as domains grow -- the sub-linear claim.
//   staleness    root mean record age at end of run: bounded by the
//                push period plus a WAN hop, degrading gracefully (not
//                collapsing) when loss eats delta batches.
//   deltas/...   federation delta traffic: batches pushed (heartbeats
//                included), records carried (retransmits included), and
//                the bounded-staleness machinery's refresh pulls and
//                stale answers.
//
// Everything is seeded; two same-seed runs must produce byte-identical
// BENCH_federation.json (scripts/chaos_sweep.sh enforces this).
#include "bench_util.h"

namespace legion::bench {
namespace {

struct FederationCell {
  std::size_t records = 0;
  double scoped_ms = 0.0;
  double global_ms = 0.0;
  int scoped_ok = 0;
  int global_ok = 0;
  double staleness_ms = 0.0;
  std::uint64_t delta_pushes = 0;
  std::uint64_t delta_records = 0;
  std::uint64_t refresh_pulls = 0;
  std::uint64_t stale_answers = 0;
  std::uint64_t messages = 0;
  std::uint64_t kbytes = 0;
};

FederationCell RunCell(bool federated, std::size_t domains,
                       std::size_t total_hosts, double push_s, double loss,
                       int queries) {
  NetworkParams net = QuietNet();
  net.inter_domain_loss = loss;
  net.seed = 7300;
  MetacomputerConfig config;
  config.domains = domains;
  config.hosts_per_domain = total_hosts / domains;
  config.vaults_per_domain = 1;
  config.seed = 9100;
  config.load.volatility = 0.0;
  config.start_reassessment = true;
  config.federated = federated;
  config.delta_push_period = Duration::Seconds(push_s > 0 ? push_s : 5);
  World world = MakeWorld(config, net);
  SimKernel& kernel = *world.kernel;
  CollectionObject* root = world->collection();

  // The prober lives in the last domain: the worst case for a flat
  // centralized Collection (every query crosses the WAN to domain 0) and
  // the common case for a federated one (the owning sub is local).
  const auto probe_domain = static_cast<DomainId>(domains - 1);
  const Loid prober = kernel.minter().Mint(LoidSpace::kService, probe_domain);
  kernel.network().RegisterEndpoint(prober, probe_domain);
  CollectionObject* scoped_target =
      federated ? world->federation()->sub(probe_domain) : root;

  // Measurement window starts after populate: zero every registry cell.
  kernel.metrics().Reset();

  FederationCell cell;
  const std::string query = "$host_load < 10.0";
  for (int q = 0; q < queries; ++q) {
    const bool global = (q % 2) == 1;
    QueryOptions options;
    options.order_by = "host_load";
    options.max_results = 8;
    if (!global) options.domain_scope = probe_domain;
    if (global && federated) {
      options.max_staleness = Duration::Seconds(2 * push_s);
    }
    const Loid target = global ? root->loid() : scoped_target->loid();
    const SimTime started = kernel.Now();
    bool ok = false;
    SimTime finished = started;
    CallOn<CollectionData, CollectionObject>(
        &kernel, prober, target, kSmallMessage, kLargeMessage,
        Duration::Seconds(10),
        [query, options](CollectionObject& collection,
                         Callback<CollectionData> reply) {
          collection.QueryCollection(query, options, std::move(reply));
        },
        [&](Result<CollectionData> hosts) {
          ok = hosts.ok() && !hosts->empty();
          finished = kernel.Now();
        },
        "bench_query");
    kernel.RunFor(Duration::Seconds(1));
    if (!ok) continue;
    const double ms = (finished - started).millis();
    if (global) {
      ++cell.global_ok;
      cell.global_ms += ms;
    } else {
      ++cell.scoped_ok;
      cell.scoped_ms += ms;
    }
  }
  // Drain stragglers so message counts cover complete exchanges.
  kernel.RunFor(Duration::Seconds(5));

  cell.records = root->record_count();
  if (cell.scoped_ok > 0) cell.scoped_ms /= cell.scoped_ok;
  if (cell.global_ok > 0) cell.global_ms /= cell.global_ok;
  cell.staleness_ms = root->MeanRecordAge().millis();
  cell.delta_pushes = Count(kernel, "delta_pushes", "collection");
  cell.delta_records = Count(kernel, "delta_records", "collection");
  cell.refresh_pulls = Count(kernel, "refresh_pulls", "collection");
  cell.stale_answers = Count(kernel, "stale_answers", "collection");
  cell.messages = Count(kernel, "messages_sent", "kernel");
  cell.kbytes = Count(kernel, "bytes_sent", "kernel") / 1024;
  return cell;
}

void RunExperiment() {
  const bool smoke = SmokePreset();
  const std::size_t total_hosts = smoke ? 32 : 64;
  const int queries = smoke ? 20 : 60;
  const std::vector<std::size_t> domain_counts =
      smoke ? std::vector<std::size_t>{2, 8}
            : std::vector<std::size_t>{2, 4, 8, 16};
  const std::vector<double> push_periods =
      smoke ? std::vector<double>{2.0} : std::vector<double>{2.0, 10.0};
  const std::vector<double> losses =
      smoke ? std::vector<double>{0.0} : std::vector<double>{0.0, 0.2};

  Table table(
      "Federated Collection sweep -- flat vs hierarchical at fixed grid "
      "size, domain-scoped + global queries from the far domain",
      "mode       domains  push_s  loss%  records  scoped_ms  global_ms  "
      "scoped_ok  global_ok  stale_ms  pushes  drecords  pulls  "
      "stale_ans  msgs  kbytes");
  table.EnableJson(
      "federation",
      {"mode", "domains", "push_s", "loss_pct", "records", "scoped_ms",
       "global_ms", "scoped_ok", "global_ok", "staleness_ms", "delta_pushes",
       "delta_records", "refresh_pulls", "stale_answers", "messages",
       "kbytes"});
  table.Begin();
  for (std::size_t domains : domain_counts) {
    for (double loss : losses) {
      FederationCell flat =
          RunCell(false, domains, total_hosts, 0.0, loss, queries);
      table.Row("%-9s  %7zu  %6.0f  %5.0f  %7zu  %9.2f  %9.2f  %9d  %9d  "
                "%8.0f  %6llu  %8llu  %5llu  %9llu  %4llu  %6llu",
                {"flat", domains, 0.0, loss * 100.0, flat.records,
                 flat.scoped_ms, flat.global_ms, flat.scoped_ok,
                 flat.global_ok, flat.staleness_ms, flat.delta_pushes,
                 flat.delta_records, flat.refresh_pulls, flat.stale_answers,
                 flat.messages, flat.kbytes});
      for (double push_s : push_periods) {
        FederationCell fed =
            RunCell(true, domains, total_hosts, push_s, loss, queries);
        table.Row("%-9s  %7zu  %6.0f  %5.0f  %7zu  %9.2f  %9.2f  %9d  %9d  "
                  "%8.0f  %6llu  %8llu  %5llu  %9llu  %4llu  %6llu",
                  {"federated", domains, push_s, loss * 100.0, fed.records,
                   fed.scoped_ms, fed.global_ms, fed.scoped_ok, fed.global_ok,
                   fed.staleness_ms, fed.delta_pushes, fed.delta_records,
                   fed.refresh_pulls, fed.stale_answers, fed.messages,
                   fed.kbytes});
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
