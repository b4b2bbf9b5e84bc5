#include "workload/app_model.h"

namespace legion {

ApplicationSpec MakeParameterStudy(std::size_t points,
                                   double work_mips_s_per_point) {
  ApplicationSpec spec;
  spec.name = "parameter-study";
  spec.instances = points;
  spec.iterations = 1;
  spec.work.assign(points, work_mips_s_per_point);
  return spec;
}

ApplicationSpec MakeStencil2D(std::size_t rows, std::size_t cols,
                              double work_mips_s_per_cell,
                              std::size_t halo_bytes,
                              std::size_t iterations) {
  ApplicationSpec spec;
  spec.name = "stencil2d";
  spec.instances = rows * cols;
  spec.iterations = iterations;
  spec.work.assign(spec.instances, work_mips_s_per_cell);
  auto cell = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (r + 1 < rows) {
        spec.edges.push_back({cell(r, c), cell(r + 1, c), halo_bytes});
        spec.edges.push_back({cell(r + 1, c), cell(r, c), halo_bytes});
      }
      if (c + 1 < cols) {
        spec.edges.push_back({cell(r, c), cell(r, c + 1), halo_bytes});
        spec.edges.push_back({cell(r, c + 1), cell(r, c), halo_bytes});
      }
    }
  }
  return spec;
}

}  // namespace legion
