#include "core/schedulers/stencil_scheduler.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "objects/class_object.h"

namespace legion {

void StencilScheduler::ComputeSchedule(const PlacementRequest& request,
                                       Callback<ScheduleRequestList> done) {
  if (request.size() != 1 || request[0].count != rows_ * cols_) {
    done(Status::Error(ErrorCode::kInvalidArgument,
                       "stencil scheduler expects one class with rows*cols "
                       "instances"));
    return;
  }
  const Loid class_loid = request[0].class_loid;
  // Per-cell CPU demand, for honest load charging while spreading.
  const double cpu_fraction =
      InstanceDemandOf(kernel(), class_loid).cpu_fraction;
  // Band sizing wants broad domain coverage, so keep member order (no
  // score proxy) but still bound the pool.  Suspects are demoted before
  // capacity sizing: a suspect domain would otherwise be handed a whole
  // band of rows.
  QueryOptions bounds;
  bounds.max_results = 4096;
  QueryPool(
      class_loid, bounds, /*min_keep=*/1,
      [this, class_loid, cpu_fraction,
       done = std::move(done)](Result<CollectionData> hosts) {
        if (!hosts.ok()) {
          done(hosts.status());
          return;
        }
        // Group usable hosts by administrative domain.
        struct HostSlot {
          ObjectMapping mapping;
          double load;
          double cpus;
          double charged = 0.0;
        };
        std::map<std::int64_t, std::vector<HostSlot>> domains;
        for (const CollectionRecord& record : *hosts) {
          std::vector<Loid> vaults = CompatibleVaultsOf(record);
          if (vaults.empty()) continue;
          HostSlot slot;
          slot.mapping = MapOnto(class_loid, record, vaults.front());
          slot.load = NumberOr(record, "host_load", 0.0);
          slot.cpus = NumberOr(record, "host_cpus", 1.0);
          // A domain number past the int64 range has no integer key.
          const double domain = NumberOr(record, "host_domain", 0.0);
          const std::int64_t key =
              std::abs(domain) < 9e18 ? static_cast<std::int64_t>(domain) : 0;
          domains[key].push_back(std::move(slot));
        }
        if (domains.empty()) {
          done(Status::Error(ErrorCode::kNoResources, "no usable hosts"));
          return;
        }
        // Aggregate capacity per domain drives band sizing.
        std::vector<std::pair<std::int64_t, double>> capacity;
        double total_capacity = 0.0;
        for (auto& [domain, slots] : domains) {
          std::sort(slots.begin(), slots.end(),
                    [](const HostSlot& a, const HostSlot& b) {
                      if (a.load != b.load) return a.load < b.load;
                      return a.mapping.host < b.mapping.host;
                    });
          double c = 0.0;
          for (const HostSlot& slot : slots) {
            c += slot.cpus / (1.0 + slot.load);
          }
          capacity.emplace_back(domain, c);
          total_capacity += c;
        }
        // Assign contiguous row bands to domains, proportional to
        // capacity (largest domains first keeps bands contiguous).
        std::sort(capacity.begin(), capacity.end(),
                  [](const auto& a, const auto& b) {
                    return a.second > b.second;
                  });
        std::vector<std::int64_t> row_domain(rows_);
        std::size_t next_row = 0;
        for (std::size_t d = 0; d < capacity.size() && next_row < rows_;
             ++d) {
          std::size_t band =
              d + 1 == capacity.size()
                  ? rows_ - next_row
                  : static_cast<std::size_t>(static_cast<double>(rows_) *
                                                 capacity[d].second /
                                                 total_capacity +
                                             0.5);
          if (band == 0 && next_row < rows_) band = 1;
          for (std::size_t r = 0; r < band && next_row < rows_; ++r) {
            row_domain[next_row++] = capacity[d].first;
          }
        }
        while (next_row < rows_) {
          row_domain[next_row++] = capacity.front().first;
        }

        // Fill cells row-major; within a band, spread across the domain's
        // hosts least-loaded-first with load charging.
        MasterSchedule master;
        master.mappings.reserve(rows_ * cols_);
        VariantSchedule alternates;
        alternates.replaces.Resize(rows_ * cols_);
        for (std::size_t r = 0; r < rows_; ++r) {
          auto& slots = domains[row_domain[r]];
          for (std::size_t c = 0; c < cols_; ++c) {
            // Current cheapest slot in this domain.
            std::size_t best = 0;
            for (std::size_t s = 1; s < slots.size(); ++s) {
              const double sa = slots[s].load + slots[s].charged;
              const double sb = slots[best].load + slots[best].charged;
              if (sa < sb) best = s;
            }
            const ObjectMapping& mapping = slots[best].mapping;
            AuditChoice(master.mappings.size(), mapping, [&] {
              return "cell (" + std::to_string(r) + "," + std::to_string(c) +
                     ") domain " + std::to_string(row_domain[r]) +
                     ", least-loaded of " + std::to_string(slots.size());
            });
            master.mappings.push_back(mapping);
            slots[best].charged +=
                cpu_fraction / std::max(slots[best].cpus, 1.0);
            // Same-domain alternate as the variant entry, if any.
            if (slots.size() > 1) {
              const std::size_t index = r * cols_ + c;
              const ObjectMapping& alternative =
                  slots[(best + 1) % slots.size()].mapping;
              if (!(alternative == mapping)) {
                alternates.replaces.Set(index);
                alternates.mappings.emplace_back(index, alternative);
              }
            }
          }
        }
        if (!alternates.mappings.empty()) {
          master.variants.push_back(std::move(alternates));
        }
        ScheduleRequestList list;
        list.masters.push_back(std::move(master));
        done(std::move(list));
      });
}

}  // namespace legion
