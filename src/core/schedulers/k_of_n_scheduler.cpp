#include "core/schedulers/k_of_n_scheduler.h"

#include <algorithm>

namespace legion {

void KOfNScheduler::ComputeSchedule(const PlacementRequest& request,
                                    Callback<ScheduleRequestList> done) {
  if (request.size() != 1) {
    done(Status::Error(ErrorCode::kInvalidArgument,
                       "k-of-n scheduling places one class at a time"));
    return;
  }
  const Loid class_loid = request[0].class_loid;
  const std::size_t k = request[0].count;
  if (k == 0 || k > n_) {
    done(Status::Error(ErrorCode::kInvalidArgument,
                       "need 0 < k <= n (k=" + std::to_string(k) +
                           ", n=" + std::to_string(n_) + ")"));
    return;
  }
  // Only the n least-loaded hosts can make the equivalence class; ask
  // the Collection for a load-ordered pool with slack for vault-less
  // hosts the filter below discards.  Keep at least k candidates even if
  // suspect: a short equivalence class would fail outright, while suspect
  // spares may still probe back to health.
  QueryOptions bounds;
  bounds.order_by = "host_load";
  bounds.max_results = std::max<std::size_t>(64, 4 * n_);
  QueryPool(
      class_loid, bounds, /*min_keep=*/k,
      [this, class_loid, k,
       done = std::move(done)](Result<CollectionData> hosts) {
        if (!hosts.ok()) {
          done(hosts.status());
          return;
        }
        // Rank candidates least-loaded-first; the top n form the
        // equivalence class.
        struct Candidate {
          ObjectMapping mapping;
          double load;
        };
        std::vector<Candidate> candidates;
        for (const CollectionRecord& record : *hosts) {
          std::vector<Loid> vaults = CompatibleVaultsOf(record);
          if (vaults.empty()) continue;
          candidates.push_back(
              {MapOnto(class_loid, record, vaults.front()),
               record.attributes.GetOr("host_load", AttrValue(0.0))
                   .as_double()});
        }
        if (candidates.size() < k) {
          done(Status::Error(ErrorCode::kNoResources,
                             "fewer than k usable hosts"));
          return;
        }
        std::sort(candidates.begin(), candidates.end(),
                  [](const Candidate& a, const Candidate& b) {
                    if (a.load != b.load) return a.load < b.load;
                    return a.mapping.host < b.mapping.host;
                  });
        const std::size_t n = std::min(n_, candidates.size());

        MasterSchedule master;
        for (std::size_t i = 0; i < k; ++i) {
          AuditChoice(i, candidates[i].mapping, [&] {
            return "load rank " + std::to_string(i) + " of " +
                   std::to_string(candidates.size()) +
                   ", load=" + std::to_string(candidates[i].load);
          });
          master.mappings.push_back(candidates[i].mapping);
        }
        // Spares: single-bit variants substituting spare s for position
        // i.  Ordered spare-major so the Enactor walks through fresh
        // resources before reusing one.
        for (std::size_t s = k; s < n; ++s) {
          for (std::size_t i = 0; i < k; ++i) {
            VariantSchedule variant;
            variant.replaces.Resize(k);
            variant.replaces.Set(i);
            variant.mappings.emplace_back(i, candidates[s].mapping);
            master.variants.push_back(std::move(variant));
          }
        }
        ScheduleRequestList list;
        list.masters.push_back(std::move(master));
        done(std::move(list));
      });
}

}  // namespace legion
