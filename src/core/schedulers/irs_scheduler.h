// Improved Random Scheduling (paper section 4.2, figures 8 and 9).
//
// "The improvement we focus on is not in the basic algorithm; the IRS
// still selects a random Host and Vault pair.  Rather, we will compute
// multiple schedules and accommodate negative feedback from the Enactor.
// ... The improved version generates n random mappings for each object
// class, and then constructs n schedules out of them.  The Scheduler
// could just as easily build n schedules through calls to the original
// generator function, but IRS does fewer lookups in the Collection."
//
// ComputeSchedule renders IRS_Gen_Placement: one implementations query
// and one Collection query per class, n candidate (Host, Vault) pairs per
// instance, the first forming the master schedule and components 2..n
// forming variant schedules containing only the entries that differ from
// the master (with the bitmap marking them).  The queries and the
// master/variant assembly are the base's PlaceEachClass; IRS supplies the
// n draws.  The wrapper of figure 9 is SchedulerObject::ScheduleAndEnact
// with RunOptions{SchedTryLimit, EnactTryLimit}.
#pragma once

#include "base/rng.h"
#include "core/scheduler.h"

namespace legion {

class IrsScheduler : public SchedulerObject {
 public:
  // `nsched` is the figure-8 parameter n: candidate mappings generated
  // per object instance (master + up to n-1 variants).
  IrsScheduler(SimKernel* kernel, Loid loid, Loid collection, Loid enactor,
               std::size_t nsched = 4, std::uint64_t seed = 1)
      : SchedulerObject(kernel, loid, "irs", collection, enactor),
        nsched_(nsched == 0 ? 1 : nsched),
        rng_(seed) {}

  void ComputeSchedule(const PlacementRequest& request,
                       Callback<ScheduleRequestList> done) override;

  std::size_t nsched() const { return nsched_; }

 private:
  std::size_t nsched_;
  Rng rng_;
};

}  // namespace legion
