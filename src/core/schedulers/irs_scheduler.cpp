#include "core/schedulers/irs_scheduler.h"

namespace legion {

void IrsScheduler::ComputeSchedule(const PlacementRequest& request,
                                   Callback<ScheduleRequestList> done) {
  // One Collection lookup per class, reused across all n candidate
  // mappings -- the "fewer lookups" improvement.  A bounded pool is
  // plenty for random draws.
  QueryOptions bounds;
  bounds.max_results = 1024;
  PlaceEachClass(
      request, bounds,
      [this](const InstanceRequest& wanted, const CollectionData& hosts,
             ChoiceLists* choices) {
        // "for i := 1 to k: for l := 1 to n: pick (H, V) at random;
        //  append the target to the list for this instance"
        for (std::size_t i = 0; i < wanted.count; ++i) {
          std::vector<ObjectMapping> per_instance;
          per_instance.reserve(nsched_);
          // Unusable hosts (no compatible vaults) trigger a redraw,
          // bounded so a vault-less metacomputer still terminates.
          std::size_t draws_left = 10 * nsched_ + 10;
          while (per_instance.size() < nsched_ && draws_left-- > 0) {
            const CollectionRecord& host = hosts[rng_.Index(hosts.size())];
            std::vector<Loid> vaults = CompatibleVaultsOf(host);
            if (vaults.empty()) continue;
            per_instance.push_back(MapOnto(wanted.class_loid, host,
                                           vaults[rng_.Index(vaults.size())]));
          }
          if (per_instance.empty()) {
            return Status::Error(ErrorCode::kNoResources,
                                 "no host with a compatible vault for class " +
                                     wanted.class_loid.ToString());
          }
          // Pad short candidate lists by repeating the first pick so
          // every instance has n components.
          while (per_instance.size() < nsched_) {
            per_instance.push_back(per_instance.front());
          }
          AuditChoice(choices->size(), per_instance.front(), [&] {
            return "random draw 1 of " + std::to_string(per_instance.size()) +
                   " from " + std::to_string(hosts.size()) + " candidates";
          });
          choices->push_back(std::move(per_instance));
        }
        return Status::Ok();
      },
      std::move(done));
}

}  // namespace legion
