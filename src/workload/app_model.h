// Application models.
//
// The paper motivates its specialized schedulers with "structured
// multi-object applications.  Examples of these applications include
// MPI-based or PVM-based simulations, parameter space studies, and other
// modeling applications.  Applications in these domains quite often
// exhibit predictable communication patterns" (section 4.3).  These
// synthetic models expose exactly that structure: per-instance work, a
// communication graph with per-iteration edge volumes, and an iteration
// count -- everything a scheduler or the makespan estimator needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/sim_time.h"

namespace legion {

// One directed communication edge: instance `from` sends `bytes` to
// instance `to` every iteration.
struct CommEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t bytes = 0;
};

struct ApplicationSpec {
  std::string name;
  std::size_t instances = 1;
  // Work per instance per iteration, in MIPS-seconds (millions of
  // instructions); one entry per instance.
  std::vector<double> work;
  std::vector<CommEdge> edges;
  std::size_t iterations = 10;
  std::size_t memory_mb_per_instance = 32;
  double cpu_fraction_per_instance = 1.0;

  double total_work() const {
    double sum = 0.0;
    for (double w : work) sum += w;
    return sum * static_cast<double>(iterations);
  }
};

// A parameter-space study: n identical independent runs.
ApplicationSpec MakeParameterStudy(std::size_t points,
                                   double work_mips_s_per_point);

// A 2-D nearest-neighbour stencil (the MPI ocean-simulation shape):
// rows x cols instances, 4-neighbour halo exchange each iteration.
ApplicationSpec MakeStencil2D(std::size_t rows, std::size_t cols,
                              double work_mips_s_per_cell,
                              std::size_t halo_bytes, std::size_t iterations);

}  // namespace legion
