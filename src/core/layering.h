// Resource-management layering choices (paper section 3, figure 2).
//
//   (a) the application does it all: it negotiates directly with
//       resources and makes placement decisions;
//   (b) the application makes its own placement decision but uses the
//       provided Resource Management services (the Enactor) to negotiate;
//   (c) the application uses a combined placement + negotiation module
//       (as in MESSIAHS);
//   (d) placement (Scheduler), negotiation (Enactor), and information
//       (Collection) each live in separate modules -- the most flexible
//       layering, and the one the rest of the paper assumes.
//
// ApplicationCoordinator realizes all four.  Each mode issues the same
// *logical* placement (random, figure-7 style) but distributes the work
// differently, so experiment E6 can compare message counts and placement
// latency across layerings -- the "cost that scales with capability"
// claim (C1).
#pragma once

#include "base/rng.h"
#include "core/collection.h"
#include "core/enactor.h"
#include "core/scheduler.h"
#include "objects/legion_object.h"

namespace legion {

enum class Layering {
  kApplicationDoesAll,     // (a)
  kApplicationPlusRm,      // (b)
  kCombinedModule,         // (c)
  kSeparateModules,        // (d)
};

const char* ToString(Layering layering);

struct PlacementTrace {
  bool success = false;
  Duration latency;        // request to final confirmation
  std::size_t instances_started = 0;
};

class ApplicationCoordinator : public LegionObject {
 public:
  // Wiring: every mode needs the collection; (b) and (d) need the
  // enactor; (c) needs a combined service (another coordinator in mode
  // (a) acting remotely); (d) needs a scheduler.
  struct Wiring {
    Loid collection;
    Loid enactor;
    Loid combined_service;
    Loid scheduler;
  };

  ApplicationCoordinator(SimKernel* kernel, Loid loid, Layering layering,
                         Wiring wiring, std::uint64_t seed = 7);

  void Place(const PlacementRequest& request, Callback<PlacementTrace> done);

  // The mode-(c) service entry point: runs the mode-(a) logic locally on
  // behalf of a remote application.
  void PlaceAsService(const PlacementRequest& request,
                      Callback<PlacementTrace> done);

 private:
  void PlaceDoesAll(const PlacementRequest& request,
                    Callback<PlacementTrace> done);
  void PlacePlusRm(const PlacementRequest& request,
                   Callback<PlacementTrace> done);
  void PlaceCombined(const PlacementRequest& request,
                     Callback<PlacementTrace> done);
  void PlaceSeparate(const PlacementRequest& request,
                     Callback<PlacementTrace> done);

  // Shared pieces.
  void QuerySnapshot(Callback<CollectionData> done);
  Result<std::vector<ObjectMapping>> RandomMappings(
      const PlacementRequest& request, const CollectionData& hosts);
  // Direct negotiation with the hosts (mode (a)/(c)): reservations then
  // class create_instance calls.
  void NegotiateAndInstantiate(std::vector<ObjectMapping> mappings,
                               SimTime started,
                               Callback<PlacementTrace> done);

  Layering layering_;
  Wiring wiring_;
  Rng rng_;
};

}  // namespace legion
