#include "workload/app_model.h"

#include <gtest/gtest.h>

#include <set>

namespace legion {
namespace {

TEST(AppModelTest, ParameterStudyShape) {
  ApplicationSpec spec = MakeParameterStudy(10, 500.0);
  EXPECT_EQ(spec.instances, 10u);
  EXPECT_EQ(spec.work.size(), 10u);
  EXPECT_TRUE(spec.edges.empty());
  EXPECT_EQ(spec.iterations, 1u);
  for (double w : spec.work) EXPECT_DOUBLE_EQ(w, 500.0);
  EXPECT_DOUBLE_EQ(spec.total_work(), 5000.0);
}

TEST(AppModelTest, Stencil2DHasFourNeighbourEdges) {
  ApplicationSpec spec = MakeStencil2D(3, 4, 100.0, 1024, 5);
  EXPECT_EQ(spec.instances, 12u);
  EXPECT_EQ(spec.iterations, 5u);
  // Interior grid edges, both directions: 2*(rows*(cols-1) + cols*(rows-1)).
  EXPECT_EQ(spec.edges.size(), 2u * (3 * 3 + 4 * 2));
  for (const CommEdge& edge : spec.edges) {
    EXPECT_LT(edge.from, spec.instances);
    EXPECT_LT(edge.to, spec.instances);
    EXPECT_EQ(edge.bytes, 1024u);
    // Nearest neighbour: row-major distance of 1 or cols.
    const auto d = edge.from > edge.to ? edge.from - edge.to
                                       : edge.to - edge.from;
    EXPECT_TRUE(d == 1 || d == 4) << edge.from << "->" << edge.to;
  }
}

TEST(AppModelTest, StencilEdgesAreSymmetric) {
  ApplicationSpec spec = MakeStencil2D(3, 3, 100.0, 64, 1);
  std::set<std::pair<std::size_t, std::size_t>> edges;
  for (const CommEdge& edge : spec.edges) {
    edges.insert({edge.from, edge.to});
  }
  for (const CommEdge& edge : spec.edges) {
    EXPECT_TRUE(edges.count({edge.to, edge.from}));
  }
}

TEST(AppModelTest, SingleCellStencilHasNoEdges) {
  ApplicationSpec spec = MakeStencil2D(1, 1, 100.0, 64, 3);
  EXPECT_EQ(spec.instances, 1u);
  EXPECT_TRUE(spec.edges.empty());
}

}  // namespace
}  // namespace legion
