// N-MCM tests: algebraic identities of Eqs. 6-8, boundary behavior, and
// model-vs-measured accuracy on seeded datasets (the paper reports <= 4%
// range errors for N-MCM; we assert a safe 20% band to stay robust across
// toolchains while still catching real regressions).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "mcm/bench_util/experiment.h"
#include "mcm/cost/nmcm.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;

struct Fixture {
  std::vector<FloatVector> data;
  std::vector<FloatVector> queries;
  MTree<VecTraits> tree;
  DistanceHistogram histogram;
  MTreeStatsView stats;

  static Fixture Make(size_t n, size_t dim, uint64_t seed,
                      VectorDatasetKind kind = VectorDatasetKind::kClustered) {
    MTreeOptions options;
    auto data = GenerateVectorDataset(kind, n, dim, seed);
    auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
    EstimatorOptions eo;
    eo.num_bins = 100;
    eo.d_plus = 1.0;
    auto hist = EstimateDistanceDistribution(data, LInfDistance{}, eo);
    auto stats = tree.CollectStats(1.0);
    return Fixture{std::move(data),
                   GenerateVectorQueries(kind, 200, dim, seed),
                   std::move(tree), std::move(hist), std::move(stats)};
  }
};

TEST(NodeBasedCostModel, FullRadiusAccessesEveryNode) {
  auto f = Fixture::Make(2000, 6, 103);
  const NodeBasedCostModel model(f.histogram, f.stats);
  // At r_Q = d⁺ every F(r_i + r_Q) = 1: all M nodes, all entries.
  EXPECT_NEAR(model.RangeNodes(1.0), static_cast<double>(f.stats.num_nodes()),
              1e-9);
  double total_entries = 0.0;
  for (const auto& node : f.stats.nodes) total_entries += node.num_entries;
  EXPECT_NEAR(model.RangeDistances(1.0), total_entries, 1e-9);
  EXPECT_NEAR(model.RangeObjects(1.0), 2000.0, 1e-9);
}

TEST(NodeBasedCostModel, CostsMonotoneInRadius) {
  auto f = Fixture::Make(2000, 8, 107);
  const NodeBasedCostModel model(f.histogram, f.stats);
  double prev_nodes = 0.0, prev_dists = 0.0;
  for (double r = 0.0; r <= 1.0; r += 0.05) {
    const double nodes = model.RangeNodes(r);
    const double dists = model.RangeDistances(r);
    EXPECT_GE(nodes, prev_nodes - 1e-12);
    EXPECT_GE(dists, prev_dists - 1e-12);
    prev_nodes = nodes;
    prev_dists = dists;
  }
  // The root is always accessed: F(d⁺ + r) = 1 even at r = 0.
  EXPECT_GE(model.RangeNodes(0.0), 1.0);
}

TEST(NodeBasedCostModel, RangeAccuracyOnClusteredData) {
  auto f = Fixture::Make(10000, 20, 1);
  const NodeBasedCostModel model(f.histogram, f.stats);
  const double rq = std::pow(0.01, 1.0 / 20.0) / 2.0;  // Paper's Fig. 1.
  const auto measured = MeasureRange(f.tree, f.queries, rq);
  EXPECT_NEAR(model.RangeNodes(rq), measured.avg_nodes,
              0.20 * measured.avg_nodes);
  EXPECT_NEAR(model.RangeDistances(rq), measured.avg_dists,
              0.20 * measured.avg_dists);
  EXPECT_NEAR(model.RangeObjects(rq), measured.avg_results,
              0.10 * measured.avg_results + 1.0);
}

TEST(NodeBasedCostModel, RangeAccuracyOnUniformData) {
  auto f = Fixture::Make(5000, 10, 3, VectorDatasetKind::kUniform);
  const NodeBasedCostModel model(f.histogram, f.stats);
  const double rq = std::pow(0.01, 1.0 / 10.0) / 2.0;
  const auto measured = MeasureRange(f.tree, f.queries, rq);
  EXPECT_NEAR(model.RangeNodes(rq), measured.avg_nodes,
              0.20 * measured.avg_nodes);
  EXPECT_NEAR(model.RangeDistances(rq), measured.avg_dists,
              0.20 * measured.avg_dists);
}

TEST(NodeBasedCostModel, NnAccuracyOnClusteredData) {
  auto f = Fixture::Make(10000, 20, 1);
  const NodeBasedCostModel model(f.histogram, f.stats);
  const auto measured = MeasureKnn(f.tree, f.queries, 1);
  // NN errors run higher than range errors (paper Fig. 2); allow 30%.
  EXPECT_NEAR(model.NnNodes(1), measured.avg_nodes,
              0.30 * measured.avg_nodes);
  EXPECT_NEAR(model.NnDistances(1), measured.avg_dists,
              0.30 * measured.avg_dists);
  EXPECT_NEAR(model.nn_model().ExpectedNnDistance(1),
              measured.avg_kth_distance,
              0.25 * measured.avg_kth_distance + 0.02);
}

TEST(NodeBasedCostModel, NnCostsIncreaseWithK) {
  auto f = Fixture::Make(3000, 10, 109);
  const NodeBasedCostModel model(f.histogram, f.stats);
  double prev_nodes = 0.0;
  for (size_t k : {1u, 5u, 20u, 100u}) {
    const double nodes = model.NnNodes(k);
    EXPECT_GT(nodes, prev_nodes);
    EXPECT_LE(nodes, static_cast<double>(f.stats.num_nodes()) + 1e-9);
    prev_nodes = nodes;
  }
}

TEST(NodeBasedCostModel, NnCostsForGeneralKMatchMeasurement) {
  auto f = Fixture::Make(5000, 12, 113);
  const NodeBasedCostModel model(f.histogram, f.stats);
  for (size_t k : {5u, 20u}) {
    const auto measured = MeasureKnn(f.tree, f.queries, k);
    EXPECT_NEAR(model.NnNodes(k), measured.avg_nodes,
                0.30 * measured.avg_nodes)
        << "k=" << k;
    EXPECT_NEAR(model.nn_model().ExpectedNnDistance(k),
                measured.avg_kth_distance,
                0.25 * measured.avg_kth_distance + 0.02)
        << "k=" << k;
  }
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Eqs. 6 and 7 written out, one F evaluation per term.
PredictedCost ReferenceRangeCosts(const Fixture& f, double radius) {
  PredictedCost total;
  for (const auto& node : f.stats.nodes) {
    total.nodes += f.histogram.Cdf(node.covering_radius + radius);
  }
  for (const auto& node : f.stats.nodes) {
    total.distances += static_cast<double>(node.num_entries) *
                       f.histogram.Cdf(node.covering_radius + radius);
  }
  return total;
}

/// The k-NN integrals written out: Σ cost(mid) · ΔP over the model grid.
PredictedCost ReferenceNnCosts(const Fixture& f,
                               const NodeBasedCostModel& model, size_t k) {
  const NnDistanceModel& nn = model.nn_model();
  const std::vector<double>& grid = nn.grid();
  PredictedCost total;
  double p_lo = nn.ProbNnWithin(grid.front(), k);
  for (size_t i = 0; i + 1 < grid.size(); ++i) {
    const double p_hi = nn.ProbNnWithin(grid[i + 1], k);
    const double mass = p_hi - p_lo;
    if (mass > 0.0) {
      const PredictedCost at =
          ReferenceRangeCosts(f, 0.5 * (grid[i] + grid[i + 1]));
      total.nodes += at.nodes * mass;
      total.distances += at.distances * mass;
    }
    p_lo = p_hi;
  }
  return total;
}

TEST(NodeBasedCostModel, FusedRangeCostsAreBitIdentical) {
  auto f = Fixture::Make(2000, 6, 103);
  const NodeBasedCostModel model(f.histogram, f.stats);
  for (const double r : {0.0, 0.013, 0.05, 0.2, 0.5, 0.999, 1.0, 1.5}) {
    const PredictedCost fused = model.RangeCosts(r);
    const PredictedCost reference = ReferenceRangeCosts(f, r);
    EXPECT_EQ(Bits(fused.nodes), Bits(model.RangeNodes(r))) << "r=" << r;
    EXPECT_EQ(Bits(fused.distances), Bits(model.RangeDistances(r)))
        << "r=" << r;
    EXPECT_EQ(Bits(fused.nodes), Bits(reference.nodes)) << "r=" << r;
    EXPECT_EQ(Bits(fused.distances), Bits(reference.distances)) << "r=" << r;
  }
}

TEST(NodeBasedCostModel, FusedNnCostsAreBitIdentical) {
  auto f = Fixture::Make(2000, 6, 103);
  const NodeBasedCostModel model(f.histogram, f.stats);
  for (const size_t k : {size_t{1}, size_t{10}, size_t{100}, size_t{2001}}) {
    const PredictedCost fused = model.NnCosts(k);
    const PredictedCost reference = ReferenceNnCosts(f, model, k);
    EXPECT_EQ(Bits(fused.nodes), Bits(model.NnNodes(k))) << "k=" << k;
    EXPECT_EQ(Bits(fused.distances), Bits(model.NnDistances(k)))
        << "k=" << k;
    EXPECT_EQ(Bits(fused.nodes), Bits(reference.nodes)) << "k=" << k;
    EXPECT_EQ(Bits(fused.distances), Bits(reference.distances)) << "k=" << k;
  }
  // k > n: fewer than k objects exist, so P_{Q,k} has no mass.
  EXPECT_EQ(model.NnCosts(2001).nodes, 0.0);
  EXPECT_EQ(model.NnCosts(2001).distances, 0.0);
}

}  // namespace
}  // namespace mcm
