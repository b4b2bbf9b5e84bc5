#include "core/schedulers/ranked_scheduler.h"

#include <algorithm>

#include "objects/class_object.h"

namespace legion {

bool RankedScheduler::Feasible(const CollectionRecord& record,
                               std::size_t memory_mb) const {
  const AttrValue* available = record.attributes.Get("host_available_memory_mb");
  if (available != nullptr && available->is_numeric() &&
      available->as_double() < static_cast<double>(memory_mb)) {
    return false;
  }
  return true;
}

double LoadAwareScheduler::Score(const CollectionRecord& record) const {
  if (use_forecast_) {
    // forecast_load() is a function injected into the Collection by the
    // Data Collection Daemon; when the record was fetched through a
    // query that computed it, it appears as a derived attribute.  We
    // fall back to the raw load.
    const AttrValue* forecast = record.attributes.Get("forecast_load");
    if (forecast != nullptr && forecast->is_numeric()) {
      return forecast->as_double();
    }
  }
  return record.attributes.GetOr("host_load", AttrValue(1e9)).as_double();
}

double CostAwareScheduler::Score(const CollectionRecord& record) const {
  const double cost =
      record.attributes.GetOr("host_cost_per_cpu_second", AttrValue(0.0))
          .as_double();
  const double speed =
      record.attributes.GetOr("host_speed_mips", AttrValue(1.0)).as_double();
  // Dollars per MIPS-second of useful work; free hosts tie at zero and
  // the spreading logic distributes among them.
  return cost / std::max(speed, 1e-9);
}

void RankedScheduler::ComputeSchedule(const PlacementRequest& request,
                                      Callback<ScheduleRequestList> done) {
  // Bound the candidate pool, pre-ordered by the policy's score proxy so
  // the cap keeps the most promising hosts.
  QueryOptions bounds;
  bounds.max_results = 1024;
  bounds.order_by = OrderAttribute();
  PlaceEachClass(
      request, bounds,
      [this](const InstanceRequest& wanted, const CollectionData& hosts,
             ChoiceLists* choices) {
        // Per-instance memory demand, for the feasibility filter.
        const std::size_t memory_mb =
            InstanceDemandOf(kernel(), wanted.class_loid).memory_mb;
        // Filter to feasible hosts with vaults, then rank by score.
        struct Ranked {
          double score;
          const CollectionRecord* record;
          Loid vault;
          double extra_load = 0.0;  // assignments charged this round
          double cpus = 1.0;
        };
        std::vector<Ranked> ranked;
        for (const CollectionRecord& record : hosts) {
          if (!Feasible(record, memory_mb)) continue;
          std::vector<Loid> vaults = CompatibleVaultsOf(record);
          if (vaults.empty()) continue;
          Ranked r;
          r.score = Score(record);
          r.record = &record;
          r.vault = vaults.front();
          r.cpus = record.attributes.GetOr("host_cpus", AttrValue(1))
                       .as_double();
          ranked.push_back(r);
        }
        if (ranked.empty()) {
          return Status::Error(ErrorCode::kNoResources,
                               "no feasible hosts for class " +
                                   wanted.class_loid.ToString());
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const Ranked& a, const Ranked& b) {
                    if (a.score != b.score) return a.score < b.score;
                    return a.record->member < b.record->member;
                  });

        const std::size_t depth = std::min(kVariants + 1, ranked.size());
        for (std::size_t i = 0; i < wanted.count; ++i) {
          // Pick the current best (score + charged load), charge it, and
          // record the next-best alternatives as variants.  Only the
          // first `depth` ranks are read, and ties break by member, so
          // selecting them equals sorting the whole pool.
          std::vector<std::size_t> order(ranked.size());
          for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
          std::partial_sort(order.begin(), order.begin() + depth, order.end(),
                            [&](std::size_t a, std::size_t b) {
                              const double sa =
                                  ranked[a].score + ranked[a].extra_load;
                              const double sb =
                                  ranked[b].score + ranked[b].extra_load;
                              if (sa != sb) return sa < sb;
                              return ranked[a].record->member <
                                     ranked[b].record->member;
                            });
          std::vector<ObjectMapping> per_instance;
          for (std::size_t rank = 0; rank < depth; ++rank) {
            const Ranked& host = ranked[order[rank]];
            per_instance.push_back(
                MapOnto(wanted.class_loid, *host.record, host.vault));
          }
          Ranked& best = ranked[order[0]];
          AuditChoice(choices->size(), per_instance.front(), [&] {
            return "best of " + std::to_string(ranked.size()) +
                   " feasible, score=" +
                   std::to_string(best.score + best.extra_load);
          });
          best.extra_load += 1.0 / std::max(best.cpus, 1.0);
          choices->push_back(std::move(per_instance));
        }
        return Status::Ok();
      },
      std::move(done));
}

}  // namespace legion
