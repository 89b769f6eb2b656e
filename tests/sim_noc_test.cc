#include <gtest/gtest.h>

#include "src/conv/multigrain.h"
#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/sim/noc.h"
#include "src/util/rng.h"

namespace swdnn::sim {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

TEST(Partition, CoversAllRowsExactlyOnce) {
  for (std::int64_t rows : {1, 3, 7, 64, 65, 100}) {
    for (int parts : {1, 2, 3, 4}) {
      if (rows < parts) continue;
      const auto p = partition_output_rows(rows, parts);
      ASSERT_EQ(p.size(), static_cast<std::size_t>(parts));
      std::int64_t cursor = 0;
      for (const auto& part : p) {
        EXPECT_EQ(part.begin, cursor);
        EXPECT_GT(part.rows(), 0);
        cursor = part.end;
      }
      EXPECT_EQ(cursor, rows);
    }
  }
}

TEST(Partition, NearEqualSplit) {
  const auto p = partition_output_rows(65, 4);
  EXPECT_EQ(p[0].rows(), 17);
  EXPECT_EQ(p[1].rows(), 16);
  EXPECT_EQ(p[3].rows(), 16);
}

TEST(Partition, RejectsBadArguments) {
  EXPECT_THROW(partition_output_rows(0, 4), std::invalid_argument);
  EXPECT_THROW(partition_output_rows(8, 0), std::invalid_argument);
}

TEST(MultiCgStats, ConcurrentModel) {
  MultiCgStats stats;
  stats.launch_overhead_seconds = 0.5;
  for (double c : {1.0, 2.0, 1.5, 1.8}) {
    LaunchStats s;
    s.compute_seconds = c;
    s.dma_seconds = 0.1;
    s.total_flops = 1'000'000'000ull;
    stats.per_cg.push_back(s);
  }
  EXPECT_DOUBLE_EQ(stats.modeled_seconds(), 2.5);  // slowest + overhead
  EXPECT_EQ(stats.total_flops(), 4'000'000'000ull);
  // Serial would be 6.3 + 0.5 overhead counted once in parallel time.
  EXPECT_NEAR(stats.scaling_speedup(), 6.3 / 2.5, 1e-12);
}

/// Seeded forward operands and the reference output for `shape`.
struct Problem {
  conv::ConvShape shape;
  tensor::Tensor in, w, expected;
  explicit Problem(const conv::ConvShape& s)
      : shape(s),
        in(conv::make_input(s)),
        w(conv::make_filter(s)),
        expected(conv::make_output(s)) {
    util::Rng rng(71);
    rng.fill_uniform(in.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
    conv::reference_forward(in, w, expected, s);
  }
};

// The multi-CG runner is SwConvolution::forward_multi_cg; these tests
// drive it through the §III-D row split.

TEST(NocSystem, RunsEachPartitionOnItsOwnMesh) {
  const Problem p(conv::ConvShape::from_output(3, 5, 7, 8, 3, 2, 2));
  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kPixelGrained;
  conv::SwConvolution sw(mesh_spec(2));
  tensor::Tensor out = conv::make_output(p.shape);
  const MultiCgStats stats =
      sw.forward_multi_cg(p.in, p.w, out, p.shape, 4, plan);
  ASSERT_EQ(stats.per_cg.size(), 4u);
  EXPECT_LE(p.expected.max_abs_diff(out), 1e-12);

  // CG i's stats are exactly one launch over its own rows: two of the
  // eight output rows each, in order.
  const auto parts = partition_output_rows(p.shape.ro(), 4);
  std::uint64_t flops = 0;
  for (std::size_t cg = 0; cg < parts.size(); ++cg) {
    EXPECT_EQ(parts[cg].rows(), 2);
    MeshExecutor exec(mesh_spec(2));
    tensor::Tensor rows = conv::make_output(p.shape);
    const LaunchStats own =
        conv::run_pixel_grained(exec, p.in, p.w, rows, p.shape, plan,
                                parts[cg].begin, parts[cg].end);
    EXPECT_EQ(stats.per_cg[cg].total_flops, own.total_flops) << cg;
    EXPECT_EQ(stats.per_cg[cg].max_compute_cycles, own.max_compute_cycles)
        << cg;
    EXPECT_EQ(stats.per_cg[cg].dma.requests, own.dma.requests) << cg;
    flops += own.total_flops;
  }
  EXPECT_EQ(stats.total_flops(), flops);
}

TEST(NocSystem, NearLinearScalingForBalancedWork) {
  // Equal partitions whose per-CG modeled time (~277 us) dwarfs the
  // fixed 2 us launch overhead: speedup ~ number of CGs (the paper's
  // "near linear scaling among the four CGs").
  const Problem p(conv::ConvShape::from_output(16, 16, 16, 16, 8, 3, 3));
  conv::SwConvolution sw(mesh_spec(2));
  tensor::Tensor out = conv::make_output(p.shape);
  const MultiCgStats stats = sw.forward_multi_cg(p.in, p.w, out, p.shape, 4);
  EXPECT_LE(p.expected.max_abs_diff(out), 1e-12);
  EXPECT_GT(stats.scaling_speedup(), 3.9);
  EXPECT_LE(stats.scaling_speedup(), 4.0 + 1e-9);
}

TEST(NocSystem, RejectsBadCgCount) {
  const Problem p(conv::ConvShape::from_output(4, 2, 2, 8, 3, 2, 2));
  conv::SwConvolution sw(mesh_spec(2));
  tensor::Tensor out = conv::make_output(p.shape);
  EXPECT_THROW(sw.forward_multi_cg(p.in, p.w, out, p.shape, 0),
               std::invalid_argument);
  // The chip has four core groups.
  EXPECT_THROW(sw.forward_multi_cg(p.in, p.w, out, p.shape, 5),
               std::invalid_argument);
}

}  // namespace
}  // namespace swdnn::sim
