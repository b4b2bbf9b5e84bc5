// The Random Scheduling Policy (paper section 4.1, figure 7).
//
// "The Random Scheduling Policy, as the name implies, randomly selects
// from the available resources that appear to be able to run the task.
// There is no consideration of load, speed, memory contention,
// communication patterns, or other factors that might affect the
// completion time of the task.  The goal here is simplicity, not
// performance."
//
// ComputeSchedule is a faithful rendering of Generate_Random_Placement():
// for each ObjectClass, query the class for its implementations, query
// the Collection for matching Hosts (the base's per-class walk does
// both), and for each desired instance pick a random Host, extract its
// compatible-vault list, and pick a random vault.  Every instance gets a
// one-entry choice list, so the result is one master schedule with no
// variants -- "the equivalent of the default schedule generator for
// Legion Classes in releases prior to 1.5".
#pragma once

#include "base/rng.h"
#include "core/scheduler.h"

namespace legion {

class RandomScheduler : public SchedulerObject {
 public:
  RandomScheduler(SimKernel* kernel, Loid loid, Loid collection, Loid enactor,
                  std::uint64_t seed = 1)
      : SchedulerObject(kernel, loid, "random", collection, enactor),
        rng_(seed) {}

  void ComputeSchedule(const PlacementRequest& request,
                       Callback<ScheduleRequestList> done) override;

 private:
  Rng rng_;
};

}  // namespace legion
