// Ranked schedulers: the "smarter" policies the paper's infrastructure
// is meant to enable (sections 1 and 4.3 promise that specialized
// schedulers easily outperform the random default; these are the
// simplest such specializations).
//
// A RankedScheduler scores every feasible host (lower is better), spreads
// instances across the best hosts (charging each assignment against the
// host's remaining capacity so one fast host is not swamped), and hands
// each instance's best-first alternatives to the base's PlaceEachClass,
// which emits IRS-style variant schedules from the next-best ranks.
//
//   * LoadAwareScheduler  -- score = host_load (optionally the injected
//     forecast_load() prediction), exercising the paper's claim that rich
//     attribute export lets schedulers avoid "subtly nonfeasible"
//     schedules: hosts without enough free memory are filtered out.
//   * CostAwareScheduler  -- score = cost_per_cpu_second / speed, i.e.
//     dollars per unit of work, using the economic attributes the paper
//     says hosts can export.
#pragma once

#include "core/scheduler.h"

namespace legion {

class RankedScheduler : public SchedulerObject {
 public:
  // Each instance's master host is followed by up to this many next-best
  // hosts as variants.
  static constexpr std::size_t kVariants = 3;

  RankedScheduler(SimKernel* kernel, Loid loid, std::string name,
                  Loid collection, Loid enactor)
      : SchedulerObject(kernel, loid, std::move(name), collection, enactor) {}

  void ComputeSchedule(const PlacementRequest& request,
                       Callback<ScheduleRequestList> done) override;

 protected:
  // Lower scores place first.  `record` is the host's Collection record.
  virtual double Score(const CollectionRecord& record) const = 0;
  // The stored attribute the Collection should pre-order (ascending) and
  // prune by before replying -- a cheap proxy for Score() so the bounded
  // candidate pool keeps the hosts the policy actually wants.  Empty =
  // member order (no useful proxy).
  virtual std::string OrderAttribute() const { return ""; }
  // Feasibility beyond arch/OS matching; default demands available
  // memory for the class's per-instance footprint.
  virtual bool Feasible(const CollectionRecord& record,
                        std::size_t memory_mb) const;
};

class LoadAwareScheduler : public RankedScheduler {
 public:
  LoadAwareScheduler(SimKernel* kernel, Loid loid, Loid collection,
                     Loid enactor, bool use_forecast = false)
      : RankedScheduler(kernel, loid,
                        use_forecast ? "load-forecast" : "load-aware",
                        collection, enactor),
        use_forecast_(use_forecast) {}

 protected:
  double Score(const CollectionRecord& record) const override;
  // forecast_load is derived (materializes after pruning), so the raw
  // load is the orderable proxy either way.
  std::string OrderAttribute() const override { return "host_load"; }

 private:
  bool use_forecast_;
};

class CostAwareScheduler : public RankedScheduler {
 public:
  CostAwareScheduler(SimKernel* kernel, Loid loid, Loid collection,
                     Loid enactor)
      : RankedScheduler(kernel, loid, "cost-aware", collection, enactor) {}

 protected:
  double Score(const CollectionRecord& record) const override;
  std::string OrderAttribute() const override {
    return "host_cost_per_cpu_second";
  }
};

// Deterministic round-robin over the feasible hosts (a classic baseline:
// ignores state entirely but spreads perfectly evenly).
class RoundRobinScheduler : public RankedScheduler {
 public:
  RoundRobinScheduler(SimKernel* kernel, Loid loid, Loid collection,
                      Loid enactor)
      : RankedScheduler(kernel, loid, "round-robin", collection, enactor) {}

 protected:
  // All hosts tie; the spreading logic then cycles them in LOID order.
  double Score(const CollectionRecord&) const override { return 0.0; }
};

}  // namespace legion
