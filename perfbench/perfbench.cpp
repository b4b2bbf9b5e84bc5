// Wall-clock benchmark harness: the soak, placement and negotiate workloads.
//
//   perfbench --workload <soak|placement|negotiate> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Every workload is single-threaded in one process and is built only
// through the public API: worlds come from Metacomputer, sessions drive
// them through WorkloadSession, and the negotiate loop calls the
// EnactorObject directly.  All timing happens here, around this file's
// own calls into the kernel and the Enactor; counts come from the
// metrics registry and public accessors.
//
// A pass builds a fresh world (timed: one setup sample), runs the
// measured window in segments (simulated time slices, or rounds),
// drains, and checks the correctness gate.  The simulation is
// deterministic, so every pass does identical work:
//   --trace 0  runs kPasses untraced passes and reports each segment's
//              best time across them (machine noise only ever adds
//              time), plus the median of the passes' world builds; wall
//              metrics are scaled by a reference loop timed beside each
//              segment and build (see ReferenceLoop);
//   --trace 1  runs one untraced and one traced pass.  The traced pass
//              switches on the kernel profiler and the real wall clock
//              and probes side copies at every checkpoint
//              (ReservationTable copies, a shadow Collection in its own
//              kernel), so the measured simulation is never perturbed.
// All passes of a run must leave the same simulation fingerprint.
//
// The last stdout line is one JSON object; perfbench/run.py turns it into
// the benchmark's result line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/schedulers/ranked_scheduler.h"
#include "obs/json.h"
#include "workload/session.h"

namespace legion::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Pairs = std::vector<std::pair<std::string, double>>;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(q * n);
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

double Sum(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum;
}

// Mean of the last quarter of `v` over the mean of its first quarter.
double Drift(const std::vector<double>& v) {
  if (v.size() < 2) return 1.0;
  const std::size_t q = std::max<std::size_t>(1, v.size() / 4);
  const double first = Sum({v.begin(), v.begin() + q});
  const double last = Sum({v.end() - q, v.end()});
  return first > 0.0 ? last / first : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- Machine-speed reference ------------------------------------------------

// On a shared machine the CPU speed drifts by tens of percent over minutes,
// longer than best-of-passes can hide.  A fixed loop of binary-heap and
// hash-table work is timed around every measured segment and every world
// build, and the wall metrics divide by it.  Its buffers are allocated
// once, so the simulation's heap state cannot change its cost.  The
// ratio is scaled back to seconds by kReferenceS: the wall metrics read as
// seconds on a machine where one loop takes 1 ms.
constexpr double kReferenceS = 1e-3;

double ReferenceLoopOnce() {
  static std::vector<std::uint64_t> heap(2048);
  static std::vector<std::uint64_t> table(std::size_t{1} << 14);
  static volatile std::uint64_t sink = 0;
  const auto start = Clock::now();
  heap.clear();
  std::fill(table.begin(), table.end(), 0);
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push_back(x);
    std::push_heap(heap.begin(), heap.end());
    table[(x * 0x9E3779B97F4A7C15ULL) >> 50] += x;
    if (heap.size() > 1024) {
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
  }
  sink = heap.front() + table[x & 0x3fff];
  return SecondsSince(start);
}

// Median of three loops, so one interruption does not skew the reading.
double ReferenceLoop() {
  return Median({ReferenceLoopOnce(), ReferenceLoopOnce(),
                 ReferenceLoopOnce()});
}

// ---- Registry reads ---------------------------------------------------------

const obs::Labels kKernel = {{"component", "kernel"}};
const obs::Labels kEnactor = {{"component", "enactor"}};
const obs::Labels kCollection = {{"component", "collection"}};
const obs::Labels kSession = {{"component", "session"}};
const obs::Labels kScheduler = {{"component", "scheduler"},
                                {"scheduler", "load-aware"}};

double CounterOf(const obs::MetricsSnapshot& s, std::string_view name,
                 const obs::Labels& labels) {
  auto it = s.counters.find(obs::MetricsRegistry::CellKey(name, labels));
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double CounterDelta(const obs::MetricsSnapshot& before,
                    const obs::MetricsSnapshot& after, std::string_view name,
                    const obs::Labels& labels) {
  return CounterOf(after, name, labels) - CounterOf(before, name, labels);
}

// Window delta of one histogram cell (empty if the cell does not exist).
obs::HistogramValue HistogramDelta(const obs::MetricsSnapshot& before,
                                   const obs::MetricsSnapshot& after,
                                   std::string_view name,
                                   const obs::Labels& labels) {
  const std::string key = obs::MetricsRegistry::CellKey(name, labels);
  auto a = after.histograms.find(key);
  if (a == after.histograms.end()) return {};
  obs::HistogramValue delta = a->second;
  auto b = before.histograms.find(key);
  if (b != before.histograms.end()) {
    for (std::size_t i = 0; i < delta.buckets.size(); ++i) {
      delta.buckets[i] -= b->second.buckets[i];
    }
    delta.count -= b->second.count;
    delta.sum -= b->second.sum;
  }
  return delta;
}

// Quantile of a fixed-bucket histogram, interpolated linearly inside the
// bucket that holds the rank (the +inf bucket reports its lower edge).
double HistogramQuantile(const obs::HistogramValue& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double below = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(h.buckets[i]);
    if (below + in_bucket >= rank && in_bucket > 0.0) {
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      if (i >= h.bounds.size()) return lo;
      return lo + (h.bounds[i] - lo) * (rank - below) / in_bucket;
    }
    below += in_bucket;
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

// ---- Options and sizes ------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

// Untraced passes of a --trace 0 run.
constexpr int kPasses = 5;

// Run length scales with --seconds, so one argument always means the same
// simulated work; only wall time varies between machines.  The sizes
// below are the ones --seconds 20 selects.
int Scaled(double at_twenty_seconds, const Options& options, int minimum) {
  const double n = at_twenty_seconds * options.seconds / 20.0;
  return std::max(minimum, static_cast<int>(n + 0.5));
}

// The grid itself (host kinds, speeds, memory) is fixed; --seed drives
// the inputs: arrival streams, network jitter, and mapping order.
constexpr std::uint64_t kTopologySeed = 42;

// A session workload: an open-loop Poisson stream of 4 x 2000 MIPS-s
// parameter studies at full CPU, placed by a LoadAwareScheduler.
constexpr std::size_t kInstancesPerApp = 4;
struct SessionShape {
  std::size_t domains = 4;
  std::size_t hosts_per_domain = 16;
  double arrivals_per_minute = 8.0;
  Duration reassess = Duration::Seconds(10);
  Duration warmup = Duration::Minutes(30);
  Duration segment = Duration::Minutes(15);
  int segments = 24;
};

SessionShape ShapeFor(const Options& options) {
  SessionShape shape;
  shape.segments = Scaled(24, options, 2);
  if (options.workload == "placement") {
    shape.domains = 8;
    shape.hosts_per_domain = 32;
    shape.arrivals_per_minute = 16.0;
    shape.reassess = Duration::Seconds(60);
    shape.warmup = Duration::Minutes(15);
    shape.segment = Duration::Seconds(225);
  }
  return shape;
}

// The negotiate workload: 1024 hosts, no scheduler, no host refresh.
constexpr std::size_t kNegotiateDomains = 16;
constexpr std::size_t kNegotiateHostsPerDomain = 64;

// Mappings per round: 100k at --seconds 20, fewer only for smoke sizes.
std::size_t NegotiateMappings(const Options& options) {
  return static_cast<std::size_t>(
      std::min(100000, Scaled(100000, options, 1024)));
}

int NegotiateRounds(const Options& options) { return Scaled(2, options, 2); }

// ---- One pass ---------------------------------------------------------------

struct Measurement {
  double setup_s = 0.0;
  double setup_ref = 0.0;            // reference loop s around the build
  std::vector<double> segment_wall;  // wall s per segment (slice / round)
  std::vector<double> segment_ref;   // reference loop s around each segment
  double sim_s = 0.0;                // simulated seconds the window covers
  double mappings = 0.0;             // instance mappings the window asked for
  double run_wall = 0.0;             // wall s inside kernel Run* calls
  double call_wall = 0.0;            // wall s inside direct Enactor calls
  double window_wall = 0.0;
  std::vector<std::string> violations;
  Pairs fingerprint;
  Pairs metrics;  // simulated end-to-end metrics and per-layer metrics
  Pairs samples;
  std::size_t attempted = 0;

  void Set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

Pairs Fingerprint(SimKernel& kernel) {
  const obs::MetricsSnapshot s = kernel.metrics().Snapshot();
  return {{"events", CounterOf(s, "events_run", kKernel)},
          {"messages", CounterOf(s, "messages_sent", kKernel)},
          {"rpcs", CounterOf(s, "rpcs_started", kKernel)},
          {"apps_placed", CounterOf(s, "apps_placed", kSession)},
          {"reservations_granted",
           CounterOf(s, "reservations_granted", kEnactor)}};
}

// ---- Side probes (traced pass only) -----------------------------------------

// Times ReservationTable::ExpireStale and ::Admit on copies of sampled
// hosts' tables, and Collection updates on a shadow Collection that lives
// in its own kernel (so its registry cells never mix with the measured
// world's).  The measured simulation only ever sees const reads.
class Probes {
 public:
  void Checkpoint(const Metacomputer& world) {
    const auto& hosts = world.hosts();
    const SimTime now = world.kernel()->Now();
    const std::size_t stride = std::max<std::size_t>(1, hosts.size() / 16);
    for (std::size_t i = 0; i < hosts.size(); i += stride) {
      const HostObject* host = hosts[i];
      ReservationTable expire_copy = host->reservations();
      auto start = Clock::now();
      expire_copy.ExpireStale(now);
      expire_us_.push_back(SecondsSince(start) * 1e6);

      ReservationTable admit_copy = host->reservations();
      ReservationToken token;
      token.host = host->loid();
      token.serial = (std::uint64_t{1} << 62) + probe_serial_++;
      token.start = now;
      token.duration = Duration::Hours(1);
      token.confirm_timeout = Duration::Minutes(5);
      token.type = ReservationType::OneShotTimesharing();
      start = Clock::now();
      (void)admit_copy.Admit(token, host->loid(), 1, 0.01, now);
      admit_us_.push_back(SecondsSince(start) * 1e6);
    }

    if (shadow_ == nullptr) {
      shadow_ = shadow_kernel_.AddActor<CollectionObject>(
          shadow_kernel_.minter().Mint(LoidSpace::kService, 0));
      for (const HostObject* host : hosts) {
        shadow_->JoinCollection(host->loid(), host->attributes(),
                                [](Result<bool>) {});
      }
    }
    const auto start = Clock::now();
    for (const HostObject* host : hosts) {
      shadow_->UpdateCollectionEntry(host->loid(), host->attributes(),
                                     [](Result<bool>) {});
    }
    update_us_.push_back(SecondsSince(start) * 1e6 /
                         static_cast<double>(hosts.size()));
    record_age_s_.push_back(world.collection()->MeanRecordAge().seconds());
  }

  double expire_us() const { return Median(expire_us_); }
  double admit_us() const { return Median(admit_us_); }
  double update_us() const { return Median(update_us_); }
  double record_age_s() const { return Median(record_age_s_); }

 private:
  SimKernel shadow_kernel_;
  CollectionObject* shadow_ = nullptr;
  std::uint64_t probe_serial_ = 1;
  std::vector<double> expire_us_;
  std::vector<double> admit_us_;
  std::vector<double> update_us_;
  std::vector<double> record_age_s_;
};

// ---- Window bookkeeping shared by the workloads -----------------------------

struct HostTotals {
  double records = 0, live = 0, running = 0, started = 0, refused = 0;
};

HostTotals SumHosts(const Metacomputer& world) {
  HostTotals t;
  for (const HostObject* host : world.hosts()) {
    t.records += static_cast<double>(host->reservations().size());
    t.live += static_cast<double>(host->reservations().live_count());
    t.running += static_cast<double>(host->running_count());
    t.started += static_cast<double>(host->objects_started());
    t.refused += static_cast<double>(host->starts_refused());
  }
  return t;
}

// Registry and host state at one edge of the measured window.
struct Edge {
  obs::MetricsSnapshot metrics;
  HostTotals hosts;
};

Edge TakeEdge(SimKernel& kernel, const Metacomputer& world) {
  return {kernel.metrics().Snapshot(), SumHosts(world)};
}

void StartWindow(SimKernel& kernel, bool traced) {
  if (!traced) return;
  kernel.profiler().Reset();
  kernel.profiler().Enable();
}

// Per-layer metrics over the measured window: registry deltas, the
// profiler's handler wall by label, and the probes.
void SetLayerMetrics(Measurement& m, const SimKernel& kernel, const Edge& a,
                     const Edge& b, const Probes& probes) {
  auto d = [&](std::string_view name, const obs::Labels& labels) {
    return CounterDelta(a.metrics, b.metrics, name, labels);
  };
  const double events = d("events_run", kKernel);

  double periodic = 0, msg = 0, event = 0, timeout = 0, backoff = 0;
  for (const auto& [label, entry] : kernel.profiler().entries()) {
    const double s = static_cast<double>(entry.wall_us) / 1e6;
    if (label == "kernel/periodic") {
      periodic += s;
    } else if (label.rfind("net/", 0) == 0) {
      msg += s;
    } else if (label == "kernel/rpc_timeout") {
      timeout += s;
    } else if (label.rfind("enactor/", 0) == 0) {
      backoff += s;
    } else {
      event += s;
    }
  }
  const double kernel_self = m.run_wall - (periodic + msg + event + timeout +
                                           backoff);

  m.Set("kernel.events", events);
  m.Set("kernel.events_per_s", Ratio(events, m.run_wall));
  m.Set("kernel.self_s", kernel_self);
  m.Set("kernel.queue_hwm",
        static_cast<double>(kernel.profiler().queue_depth_high_water()));
  m.Set("kernel.rpcs", d("rpcs_started", kKernel));
  m.Set("kernel.rpc_timeouts", d("rpcs_timed_out", kKernel));
  m.Set("net.messages", d("messages_sent", kKernel));
  m.Set("net.bytes", d("bytes_sent", kKernel));
  m.Set("net.dropped", d("messages_dropped", kKernel));
  m.Set("handler.periodic_s", periodic);
  m.Set("handler.msg_s", msg);
  m.Set("handler.event_s", event);
  m.Set("handler.timeout_s", timeout);
  m.Set("handler.backoff_s", backoff);

  m.Set("reservation.records", b.hosts.records);
  m.Set("reservation.live", b.hosts.live);
  m.Set("reservation.live_frac", Ratio(b.hosts.live, b.hosts.records));
  m.Set("reservation.expire_us", probes.expire_us());
  m.Set("reservation.admit_us", probes.admit_us());

  const double updates = d("updates_applied", kCollection);
  const obs::HistogramValue query_wall = HistogramDelta(
      a.metrics, b.metrics, "collection_query_wall_us", kCollection);
  const obs::HistogramValue staleness = HistogramDelta(
      a.metrics, b.metrics, "collection_staleness_ms", kCollection);
  const double cache_hits = d("compile_cache_hits", kCollection);
  const double cache_misses = d("compile_cache_misses", kCollection);
  m.Set("collection.updates", updates);
  m.Set("collection.update_us", probes.update_us());
  m.Set("collection.queries", d("queries_served", kCollection));
  m.Set("collection.query_wall_us_p50", HistogramQuantile(query_wall, 0.50));
  m.Set("collection.query_wall_us_p99", HistogramQuantile(query_wall, 0.99));
  m.Set("collection.index_hits", d("index_hits", kCollection));
  m.Set("collection.planner_fallbacks", d("planner_fallbacks", kCollection));
  m.Set("collection.cache_hit_frac",
        Ratio(cache_hits, cache_hits + cache_misses));
  // The record age schedulers acted on (mean over queries); with no
  // queries, the mean record age at the checkpoints.
  m.Set("collection.record_age_s",
        staleness.count > 0
            ? staleness.sum / static_cast<double>(staleness.count) / 1e3
            : probes.record_age_s());

  m.Set("scheduler.runs", d("scheduler_runs", kScheduler));
  m.Set("scheduler.lookups", d("collection_lookups", kScheduler));
  m.Set("scheduler.mappings_unplaced", d("mappings_unplaced", kScheduler));
  m.Set("scheduler.suspects_skipped", d("suspects_skipped", kScheduler));

  const double batches = d("batches_sent", kEnactor);
  m.Set("enactor.requested", d("reservations_requested", kEnactor));
  m.Set("enactor.granted", d("reservations_granted", kEnactor));
  m.Set("enactor.failed", d("reservations_failed", kEnactor));
  m.Set("enactor.cancelled", d("reservations_cancelled", kEnactor));
  m.Set("enactor.rereservations", d("rereservations", kEnactor));
  m.Set("enactor.batches", batches);
  m.Set("enactor.slots_per_batch",
        Ratio(d("batched_slots", kEnactor), batches));
  m.Set("enactor.retries", d("retries", kEnactor));
  m.Set("enactor.parked", d("requests_parked", kEnactor));

  m.Set("host.objects_started", b.hosts.started - a.hosts.started);
  m.Set("host.starts_refused", b.hosts.refused - a.hosts.refused);
  m.Set("session.offered", d("apps_offered", kSession));
  m.Set("session.placed", d("apps_placed", kSession));
  m.Set("session.completed", d("apps_completed", kSession));

  // Attribution rows (run.py prints them as a table).  attr.<layer>.*
  // rows are exclusive and sum to the window; attr.within.<layer>.* rows
  // are parts of the handler rows: the Collection's own query wall, and
  // estimates from the probes' unit costs times the window's counts.
  m.Set("attr.sim.kernel_self_s", kernel_self);
  m.Set("attr.sim.msg_handlers_s", msg);
  m.Set("attr.resources.host_refresh_s", periodic);
  m.Set("attr.workload.event_handlers_s", event);
  m.Set("attr.core.enactor_timers_s", backoff + timeout);
  m.Set("attr.core.enactor_calls_s", m.call_wall);
  m.Set("attr.within.core.collection_query_s", query_wall.sum / 1e6);
  m.Set("attr.within.core.collection_update_est_s",
        updates * probes.update_us() / 1e6);
  m.Set("attr.within.resources.reservation_admit_est_s",
        d("reservations_requested", kEnactor) * probes.admit_us() / 1e6);
  m.Set("attr.window_s", m.window_wall);
}

// Enactor grants per reservation requested over the window.
double GrantedFrac(const Edge& a, const Edge& b) {
  return Ratio(
      CounterDelta(a.metrics, b.metrics, "reservations_granted", kEnactor),
      CounterDelta(a.metrics, b.metrics, "reservations_requested", kEnactor));
}

void CheckRequestAccounting(Measurement& m, const obs::MetricsSnapshot& s) {
  m.Check(CounterOf(s, "reservations_granted", kEnactor) +
                  CounterOf(s, "reservations_failed", kEnactor) ==
              CounterOf(s, "reservations_requested", kEnactor),
          "granted + failed = requested");
}

// ---- Session workloads (soak, placement) ------------------------------------

struct SessionWorld {
  // Declaration order is teardown order in reverse: the session and the
  // metacomputer hold pointers into the kernel.
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<Metacomputer> world;
  std::unique_ptr<WorkloadSession> session;
  std::size_t offered = 0;
  SimTime window_start;
  SimTime window_end;
};

// A Poisson stream conditioned on its expected count: rate x horizon
// arrival times drawn uniformly and sorted.  Every seed then offers the
// same number of apps, so seeds differ in timing, not in volume.
std::vector<SimTime> ExactCountArrivals(Rng& rng, double rate_per_second,
                                        SimTime start, Duration horizon) {
  const auto count = static_cast<std::size_t>(
      rate_per_second * horizon.seconds() + 0.5);
  std::vector<SimTime> arrivals;
  arrivals.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    arrivals.push_back(start + horizon * rng.UniformDouble());
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

std::unique_ptr<SessionWorld> BuildSession(const Options& options,
                                           bool real_clock) {
  const SessionShape shape = ShapeFor(options);
  auto w = std::make_unique<SessionWorld>();
  NetworkParams net;
  net.seed = options.seed * 2 + 1;
  w->kernel = std::make_unique<SimKernel>(net);
  if (real_clock) w->kernel->wallclock().UseRealTime();
  MetacomputerConfig config;
  config.domains = shape.domains;
  config.hosts_per_domain = shape.hosts_per_domain;
  config.seed = kTopologySeed;
  config.reassess_period = shape.reassess;
  config.load.initial = 0.1;
  config.load.mean = 0.1;
  config.load.volatility = 0.05;
  w->world = std::make_unique<Metacomputer>(w->kernel.get(), config);
  w->world->PopulateCollection();
  SimKernel& kernel = *w->kernel;
  auto* scheduler = kernel.AddActor<LoadAwareScheduler>(
      kernel.minter().Mint(LoidSpace::kService, 0),
      w->world->collection()->loid(), w->world->enactor()->loid());
  w->session = std::make_unique<WorkloadSession>(w->world.get(), scheduler);
  for (HostObject* host : w->world->hosts()) host->StartReassessment();

  ApplicationSpec app = MakeParameterStudy(kInstancesPerApp, 2000.0);
  app.cpu_fraction_per_instance = 1.0;
  Rng rng(options.seed * 7919 + 13);
  w->window_start = kernel.Now() + shape.warmup;
  w->window_end = w->window_start + shape.segment * shape.segments;
  const std::vector<SimTime> arrivals =
      ExactCountArrivals(rng, shape.arrivals_per_minute / 60.0, kernel.Now(),
                         w->window_end - kernel.Now());
  w->offered = arrivals.size();
  w->session->SubmitAt(app, arrivals);
  kernel.RunFor(shape.warmup);
  return w;
}

Measurement SessionPass(const Options& options, bool traced) {
  const SessionShape shape = ShapeFor(options);
  Measurement m;
  const double setup_ref = ReferenceLoop();
  const auto build_start = Clock::now();
  std::unique_ptr<SessionWorld> w = BuildSession(options, traced);
  m.setup_s = SecondsSince(build_start);
  m.setup_ref = 0.5 * (setup_ref + ReferenceLoop());
  SimKernel& kernel = *w->kernel;
  Metacomputer& world = *w->world;
  Probes probes;

  StartWindow(kernel, traced);
  const Edge before = TakeEdge(kernel, world);
  for (int i = 0; i < shape.segments; ++i) {
    const double ref = ReferenceLoop();
    const auto start = Clock::now();
    kernel.RunFor(shape.segment);
    m.segment_wall.push_back(SecondsSince(start));
    m.segment_ref.push_back(0.5 * (ref + ReferenceLoop()));
    if (traced) probes.Checkpoint(world);
  }
  m.run_wall = m.window_wall = Sum(m.segment_wall);
  m.sim_s = shape.segment.seconds() * shape.segments;
  const Edge after = TakeEdge(kernel, world);
  kernel.profiler().Disable();

  // Drain: no arrivals after the window; run until every placed app has
  // finished and every host has released its reservations.
  HostTotals drained;
  for (int step = 0; step < 24; ++step) {
    std::size_t running_apps = 0;
    for (const SessionAppResult& r : w->session->results()) {
      if (r.placed && r.finished_at <= r.arrived) ++running_apps;
    }
    drained = SumHosts(world);
    if (running_apps == 0 && drained.live == 0 && drained.running == 0) break;
    kernel.RunFor(Duration::Minutes(10));
  }

  // Outcomes for the apps that arrived inside the window, and whole-run
  // conservation for the gate.
  std::size_t offered = 0, placed = 0, all_placed = 0, all_completed = 0;
  std::vector<double> turnaround, wait;
  for (const SessionAppResult& r : w->session->results()) {
    const bool done = r.placed && r.finished_at > r.arrived;
    if (r.placed) ++all_placed;
    if (done) ++all_completed;
    if (r.arrived < w->window_start || r.arrived >= w->window_end) continue;
    ++offered;
    if (!r.placed) continue;
    ++placed;
    wait.push_back(r.wait().seconds());
    if (done) turnaround.push_back(r.turnaround().seconds());
  }

  const obs::MetricsSnapshot end = kernel.metrics().Snapshot();
  const std::size_t results = w->session->results().size();
  const std::size_t unplaced = results - all_placed;
  m.Check(results == w->offered, "every arrival was submitted");
  m.Check(CounterOf(end, "apps_offered", kSession) ==
              static_cast<double>(all_placed + unplaced),
          "offered = placed + unplaced");
  m.Check(CounterOf(end, "apps_placed", kSession) ==
              static_cast<double>(all_placed),
          "registry placed count matches the session results");
  m.Check(all_completed == all_placed, "completed = placed after the drain");
  m.Check(CounterOf(end, "apps_completed", kSession) ==
              static_cast<double>(all_completed),
          "registry completed count matches the session results");
  m.Check(drained.live == 0, "no live reservation left after the drain");
  m.Check(drained.running == 0, "no running object left after the drain");
  CheckRequestAccounting(m, end);
  m.attempted = results;
  m.fingerprint = Fingerprint(kernel);

  m.mappings = static_cast<double>(offered * kInstancesPerApp);
  m.Set("placed_frac", Ratio(static_cast<double>(placed),
                             static_cast<double>(offered)));
  m.Set("turnaround_p50_sim_s", Median(turnaround));
  m.Set("turnaround_p99_sim_s", Percentile(turnaround, 0.99));
  m.Set("granted_frac", GrantedFrac(before, after));
  m.Set("feedback_sim_s", Median(wait));
  m.samples = {{"turnaround", static_cast<double>(turnaround.size())},
               {"feedback", static_cast<double>(wait.size())}};
  SetLayerMetrics(m, kernel, before, after, probes);
  return m;
}

// ---- Negotiate --------------------------------------------------------------

struct NegotiateWorld {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<Metacomputer> world;
  ScheduleRequestList master;
};

// Round-robin over the hosts in a seeded order, each mapping using the
// host's domain vault.
ScheduleRequestList RoundRobin(const Metacomputer& world, const Loid& klass,
                               std::size_t mappings, std::uint64_t seed) {
  std::vector<Loid> domain_vault(world.config().domains);
  for (const VaultObject* vault : world.vaults()) {
    domain_vault[vault->spec().domain] = vault->loid();
  }
  std::vector<const HostObject*> hosts(world.hosts().begin(),
                                       world.hosts().end());
  Rng rng(seed);
  rng.Shuffle(hosts);
  ScheduleRequestList request;
  MasterSchedule& master = request.masters.emplace_back();
  master.mappings.reserve(mappings);
  for (std::size_t i = 0; i < mappings; ++i) {
    const HostObject* host = hosts[i % hosts.size()];
    ObjectMapping mapping;
    mapping.class_loid = klass;
    mapping.host = host->loid();
    mapping.vault = domain_vault[host->spec().domain];
    master.mappings.push_back(mapping);
  }
  return request;
}

struct RoundResult {
  bool completed = false;
  bool success = false;
  std::size_t granted = 0;
  std::size_t cancelled = 0;
  double feedback_sim_s = 0.0;
  double turnaround_sim_s = 0.0;
  double run_wall = 0.0;
  double call_wall = 0.0;
};

// One closed-loop round: reserve the whole master schedule and, as soon
// as the feedback lands, cancel every granted token.  The kernel runs in
// short steps until the cancels are acknowledged, bounded in sim time so
// a lost callback fails the gate instead of hanging.  The callbacks share
// ownership of the result, so one that fires after the bound stays safe.
RoundResult NegotiateRound(NegotiateWorld& w,
                           const ScheduleRequestList& request) {
  SimKernel& kernel = *w.kernel;
  EnactorObject& enactor = *w.world->enactor();
  auto r = std::make_shared<RoundResult>();
  const SimTime t0 = kernel.Now();
  const auto start = Clock::now();
  enactor.MakeReservations(request, [r, t0, &kernel, &enactor](
                                        Result<ScheduleFeedback> feedback) {
    r->feedback_sim_s = (kernel.Now() - t0).seconds();
    if (!feedback.ok()) return;
    r->success = feedback->success;
    r->granted = feedback->tokens.size();
    enactor.CancelReservations(
        *feedback, [r, t0, &kernel](Result<std::size_t> count) {
          if (count.ok()) r->cancelled = *count;
          r->turnaround_sim_s = (kernel.Now() - t0).seconds();
          r->completed = true;
        });
  });
  r->call_wall = SecondsSince(start);
  const auto run_start = Clock::now();
  const SimTime limit = kernel.Now() + Duration::Hours(1);
  while (!r->completed && kernel.Now() < limit) {
    kernel.RunFor(Duration::Millis(50));
  }
  r->run_wall = SecondsSince(run_start);
  return *r;
}

std::unique_ptr<NegotiateWorld> BuildNegotiate(const Options& options,
                                               bool real_clock) {
  auto w = std::make_unique<NegotiateWorld>();
  NetworkParams net;
  net.seed = options.seed * 2 + 1;
  w->kernel = std::make_unique<SimKernel>(net);
  if (real_clock) w->kernel->wallclock().UseRealTime();
  MetacomputerConfig config;
  config.domains = kNegotiateDomains;
  config.hosts_per_domain = kNegotiateHostsPerDomain;
  config.vaults_per_domain = 1;
  config.seed = kTopologySeed;
  config.load.initial = 0.0;
  config.load.mean = 0.0;
  config.load.volatility = 0.0;
  w->world = std::make_unique<Metacomputer>(w->kernel.get(), config);
  w->world->PopulateCollection();
  // Tiny timeshared instances so ~100 windows fit on every host.
  ClassObject* klass = w->world->MakeUniversalClass("bulk", 1, 0.02);
  w->master =
      RoundRobin(*w->world, klass->loid(), NegotiateMappings(options),
                 options.seed);
  // Warm-up: one mapping per host, reserved and cancelled.
  (void)NegotiateRound(*w, RoundRobin(*w->world, klass->loid(),
                                      w->world->hosts().size(), options.seed));
  return w;
}

Measurement NegotiatePass(const Options& options, bool traced) {
  const int rounds = NegotiateRounds(options);
  const std::size_t mappings = NegotiateMappings(options);
  Measurement m;
  const double setup_ref = ReferenceLoop();
  const auto build_start = Clock::now();
  std::unique_ptr<NegotiateWorld> w = BuildNegotiate(options, traced);
  m.setup_s = SecondsSince(build_start);
  m.setup_ref = 0.5 * (setup_ref + ReferenceLoop());
  SimKernel& kernel = *w->kernel;
  Metacomputer& world = *w->world;
  Probes probes;

  StartWindow(kernel, traced);
  const Edge before = TakeEdge(kernel, world);
  const SimTime sim0 = kernel.Now();
  std::vector<double> feedback, turnaround;
  std::size_t rounds_granted = 0;
  for (int i = 0; i < rounds; ++i) {
    const double ref = ReferenceLoop();
    const RoundResult r = NegotiateRound(*w, w->master);
    m.segment_wall.push_back(r.run_wall + r.call_wall);
    m.segment_ref.push_back(0.5 * (ref + ReferenceLoop()));
    m.run_wall += r.run_wall;
    m.call_wall += r.call_wall;
    feedback.push_back(r.feedback_sim_s);
    turnaround.push_back(r.turnaround_sim_s);
    if (r.success) ++rounds_granted;
    const std::string round = "round " + std::to_string(i);
    m.Check(r.completed, round + " completed");
    m.Check(r.granted == mappings,
            round + " granted every mapping");
    m.Check(r.cancelled == r.granted,
            round + " cancelled every granted token");
    if (traced) probes.Checkpoint(world);
  }
  m.window_wall = m.run_wall + m.call_wall;
  m.sim_s = (kernel.Now() - sim0).seconds();
  const Edge after = TakeEdge(kernel, world);
  kernel.profiler().Disable();

  m.Check(after.hosts.live == 0, "no live reservation left after cancel");
  m.Check(after.hosts.running == 0, "no running object on any host");
  CheckRequestAccounting(m, after.metrics);
  m.attempted = static_cast<std::size_t>(rounds) * mappings;
  m.fingerprint = Fingerprint(kernel);

  m.mappings = static_cast<double>(m.attempted);
  m.Set("placed_frac", Ratio(static_cast<double>(rounds_granted), rounds));
  m.Set("turnaround_p50_sim_s", Median(turnaround));
  m.Set("turnaround_p99_sim_s", Percentile(turnaround, 0.99));
  m.Set("granted_frac", GrantedFrac(before, after));
  m.Set("feedback_sim_s", Median(feedback));
  m.samples = {{"turnaround", static_cast<double>(turnaround.size())},
               {"feedback", static_cast<double>(feedback.size())}};
  SetLayerMetrics(m, kernel, before, after, probes);
  return m;
}

// ---- Main -------------------------------------------------------------------

Measurement RunPass(const Options& options, bool traced) {
  return options.workload == "negotiate" ? NegotiatePass(options, traced)
                                         : SessionPass(options, traced);
}

std::string JsonPairs(const Pairs& v) {
  std::string out = "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += obs::JsonString(v[i].first) + ':' + obs::JsonNumber(v[i].second);
  }
  return out + '}';
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += obs::JsonNumber(v[i]);
  }
  return out + ']';
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.workload != "soak" && options.workload != "placement" &&
      options.workload != "negotiate") {
    std::fprintf(stderr,
                 "usage: perfbench --workload soak|placement|negotiate "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }

  // Untraced passes; every one must leave the same fingerprint.
  std::vector<Measurement> passes;
  std::vector<double> pass_wall;
  const int untraced = options.trace ? 1 : kPasses;
  for (int i = 0; i < untraced; ++i) {
    passes.push_back(RunPass(options, false));
    pass_wall.push_back(passes.back().window_wall);
  }
  Measurement result = passes.front();
  for (const Measurement& pass : passes) {
    result.Check(pass.fingerprint == result.fingerprint,
                 "every pass leaves the same fingerprint");
  }
  for (std::size_t i = 1; i < passes.size(); ++i) {
    result.violations.insert(result.violations.end(),
                             passes[i].violations.begin(),
                             passes[i].violations.end());
  }

  if (options.trace) {
    Measurement traced = RunPass(options, true);
    pass_wall.push_back(traced.window_wall);
    traced.Check(traced.fingerprint == result.fingerprint,
                 "traced and untraced passes leave the same fingerprint");
    traced.violations.insert(traced.violations.end(),
                             result.violations.begin(),
                             result.violations.end());
    traced.Set("trace.overhead_frac",
               Ratio(traced.window_wall, result.window_wall) - 1.0);
    traced.Set("machine.reference_us", Median(traced.segment_ref) * 1e6);
    result = std::move(traced);
  } else {
    // Each segment's best time across passes: raw wall for drift (a ratio
    // within one run), wall per reference loop for the wall metrics.
    std::vector<double> best = result.segment_wall;
    std::vector<double> scaled(best.size());
    std::vector<double> setups;
    for (std::size_t i = 0; i < best.size(); ++i) {
      scaled[i] = result.segment_wall[i] / result.segment_ref[i];
    }
    for (const Measurement& pass : passes) {
      setups.push_back(pass.setup_s / pass.setup_ref * kReferenceS);
      for (std::size_t i = 0; i < best.size(); ++i) {
        best[i] = std::min(best[i], pass.segment_wall[i]);
        scaled[i] = std::min(scaled[i],
                             pass.segment_wall[i] / pass.segment_ref[i]);
      }
    }
    const double window = Sum(scaled) * kReferenceS;
    result.segment_wall = best;
    result.Set("wall_s_per_sim_h", Ratio(window * 3600.0, result.sim_s));
    result.Set("wall_us_per_mapping", Ratio(window * 1e6, result.mappings));
    result.Set("drift", Drift(best));
    result.Set("setup_s", Median(setups));
    result.Set("peak_rss_mb", PeakRssMb());
  }

  std::string violations = "[";
  for (std::size_t i = 0; i < result.violations.size(); ++i) {
    if (i != 0) violations += ',';
    violations += obs::JsonString(result.violations[i]);
  }
  violations += ']';
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"attempted\":%zu,"
      "\"violations\":%s,\"fingerprint\":%s,\"samples\":%s,"
      "\"pass_wall_s\":%s,\"segment_wall_s\":%s,\"metrics\":%s}\n",
      obs::JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      result.attempted, violations.c_str(),
      JsonPairs(result.fingerprint).c_str(), JsonPairs(result.samples).c_str(),
      JsonList(pass_wall).c_str(), JsonList(result.segment_wall).c_str(),
      JsonPairs(result.metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace legion::perfbench

int main(int argc, char** argv) { return legion::perfbench::Main(argc, argv); }
