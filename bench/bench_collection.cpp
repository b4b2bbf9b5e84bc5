// Experiment E4: Collection query engine -- scan vs index vs top-k.
//
// The Collection is on every scheduler's critical path.  This harness
// ablates the query execution layer over growing record counts: the same
// compiled query evaluated (a) by full scan (force_scan), (b) through
// the attribute indexes, and (c) through the indexes with the
// schedulers' bounded-pool options (order_by + max_results).  Expected
// shape: scan linear in records; indexed point/range queries roughly
// flat; regexp match() non-sargable, so identical in all modes.
//
// Every indexed cell is checked byte-for-byte against the scan result
// before timing (the planner-equivalence contract).
#include <chrono>
#include <cstdlib>

#include "bench_util.h"

namespace legion::bench {
namespace {

struct QueryCase {
  const char* name;
  std::string text;
};

std::vector<QueryCase> Cases() {
  return {
      {"point", "$host_name == \"host7\""},
      {"arch+os", "$host_arch == \"x86\" and $host_os_name == \"Linux\""},
      {"range", "$host_load < 0.1"},
      {"compound",
       "($host_arch == \"x86\" or $host_arch == \"alpha\") and "
       "$host_load < 0.2"},
      {"regex", "match($host_os_name, \"IRIX\") and "
                "match(\"5\\\\..*\", $host_os_version)"},
  };
}

std::unique_ptr<SimKernel> g_kernel;

CollectionObject* BuildCollection(std::size_t records) {
  if (!g_kernel) g_kernel = std::make_unique<SimKernel>(QuietNet());
  auto* collection = g_kernel->AddActor<CollectionObject>(
      g_kernel->minter().Mint(LoidSpace::kService, 0));
  Rng rng(records * 31 + 7);
  const auto& platforms = KnownPlatforms();
  for (std::size_t i = 0; i < records; ++i) {
    const Platform& platform = platforms[rng.Index(platforms.size())];
    AttributeDatabase attrs;
    attrs.Set("host_name", "host" + std::to_string(i));
    attrs.Set("host_arch", platform.arch);
    attrs.Set("host_os_name", platform.os_name);
    attrs.Set("host_os_version", platform.os_version);
    attrs.Set("host_load", rng.Uniform(0.0, 2.0));
    attrs.Set("host_cpus", rng.UniformInt(1, 16));
    attrs.Set("host_memory_mb", rng.UniformInt(128, 4096));
    collection->JoinCollection(Loid(LoidSpace::kHost, 0, i + 1), attrs,
                               [](Result<bool>) {});
  }
  return collection;
}

// Microseconds per call, timed over enough iterations to swamp clock
// noise (at least ~25 ms of work per cell).
template <typename Fn>
double TimeUs(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm up
  std::size_t iterations = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) fn();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    if (us >= 25'000.0 || iterations >= 1u << 20) {
      return us / static_cast<double>(iterations);
    }
    iterations *= 4;
  }
}

bool SameMembers(const CollectionData& a, const CollectionData& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].member == b[i].member)) return false;
  }
  return true;
}

void RunAblation() {
  Table table("E4 query engine ablation -- scan vs index vs index+top-k "
              "(us/query)",
              "records  query     matches  scan_us  index_us  topk_us  "
              "idx_speedup  topk_speedup  path");
  // The JSON mirror records only the deterministic columns (the wall
  // timings print in the text table but would break the sweep's
  // double-run byte-identity check).
  table.EnableJson("collection", {"records", "query", "matches", "path"});
  table.Begin();

  for (std::size_t records : {2000u, 10000u, 50000u}) {
    CollectionObject* collection = BuildCollection(records);
    for (const QueryCase& qc : Cases()) {
      auto query = query::CompiledQuery::Compile(qc.text);
      if (!query) {
        std::fprintf(stderr, "compile failed: %s\n", qc.text.c_str());
        std::exit(1);
      }
      QueryOptions scan;
      scan.force_scan = true;
      QueryOptions indexed;  // defaults
      QueryOptions topk;
      topk.max_results = 16;
      topk.order_by = "host_load";

      // Equivalence check before timing: the index path must reproduce
      // the scan byte-for-byte.
      const auto scan_result = *collection->QueryLocal(*query, scan);
      const auto index_result = *collection->QueryLocal(*query, indexed);
      if (!SameMembers(scan_result, index_result)) {
        std::fprintf(stderr, "MISMATCH scan vs index: %s at %zu records\n",
                     qc.name, records);
        std::exit(1);
      }

      const std::uint64_t hits_before =
          Count(*g_kernel, "index_hits", "collection");
      (void)collection->QueryLocal(*query, indexed);
      const bool used_index =
          Count(*g_kernel, "index_hits", "collection") > hits_before;

      const double scan_us =
          TimeUs([&] { (void)collection->QueryLocal(*query, scan); });
      const double index_us =
          TimeUs([&] { (void)collection->QueryLocal(*query, indexed); });
      const double topk_us =
          TimeUs([&] { (void)collection->QueryLocal(*query, topk); });

      const char* path = used_index ? "index" : "scan";
      table.Row("%7zu  %-8s  %7zu  %7.1f  %8.1f  %7.1f  %10.1fx  %11.1fx  %s",
                records, qc.name, scan_result.size(), scan_us, index_us,
                topk_us, scan_us / index_us, scan_us / topk_us, path);
      table.RecordRow({records, qc.name, scan_result.size(), path});
    }
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunAblation();
  return 0;
}
