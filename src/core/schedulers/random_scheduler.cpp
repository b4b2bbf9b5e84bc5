#include "core/schedulers/random_scheduler.h"

namespace legion {

void RandomScheduler::ComputeSchedule(const PlacementRequest& request,
                                      Callback<ScheduleRequestList> done) {
  // Random sampling only needs a bounded candidate pool; cap the reply so
  // a metacomputer-scale Collection is never copied whole.
  QueryOptions bounds;
  bounds.max_results = 1024;
  PlaceEachClass(
      request, bounds,
      [this](const InstanceRequest& wanted, const CollectionData& hosts,
             ChoiceLists* choices) {
        // "for i := 1 to k: pick a Host H at random; extract list of
        //  compatible vaults from H; randomly pick a compatible vault V;
        //  append the target (H, V) to the master schedule"
        for (std::size_t i = 0; i < wanted.count; ++i) {
          const CollectionRecord& host = hosts[rng_.Index(hosts.size())];
          std::vector<Loid> vaults = CompatibleVaultsOf(host);
          if (vaults.empty()) {
            return Status::Error(
                ErrorCode::kNoResources,
                "host has no compatible vaults: " + host.member.ToString());
          }
          ObjectMapping mapping = MapOnto(wanted.class_loid, host,
                                          vaults[rng_.Index(vaults.size())]);
          AuditChoice(choices->size(), mapping, [&] {
            return "random pick of " + std::to_string(hosts.size()) +
                   " candidates";
          });
          choices->push_back({std::move(mapping)});
        }
        return Status::Ok();
      },
      std::move(done));
}

}  // namespace legion
