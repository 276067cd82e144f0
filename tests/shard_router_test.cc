// The shard layer's contracts. The ones that matter most:
//
//  - N=1 degeneracy: one-shard execution is bit-identical to the
//    unsharded M-tree — the answer lists AND the distance/node counters.
//  - Any-N determinism: range and k-NN answers match the unsharded index
//    exactly (oids, distances, order) for both assignment policies, with
//    and without cost routing, and at any executor thread count.
//  - Provable skipping: every shard a range plan skips, or a k-NN scatter
//    skips against its running k-th distance, is exhaustively verified to
//    contain no result — for both assignments, with the Voronoi bound on
//    clustered shards only, tight even for an object equidistant to two
//    seeds.
//  - k-NN bound propagation tightens work without changing answers.
//  - Admission control under a tiny budget neither deadlocks nor changes
//    batch results.
//  - Persistence round-trips trees, sidecars and whole routing plans.
//  - Routing plans (and EXPLAIN rows) are bit-identical to the shard
//    models evaluated directly, whether the memoized shard prices are
//    cold, warm, or raced for by concurrent callers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mcm/dataset/vector_datasets.h"
#include "mcm/engine/executor.h"
#include "mcm/engine/metric_index.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/mtree.h"
#include "mcm/shard/partition.h"
#include "mcm/shard/router.h"
#include "mcm/shard/sharded_index.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<L2Distance>;
using Router = shard::ShardRouter<VecTraits>;

static_assert(MetricIndex<Router>);

constexpr size_t kN = 600;
constexpr size_t kDim = 4;
constexpr size_t kQueries = 25;
constexpr uint64_t kSeed = 42;

std::vector<FloatVector> Dataset() {
  return GenerateVectorDataset(VectorDatasetKind::kClustered, kN, kDim,
                               kSeed);
}

std::vector<FloatVector> Queries() {
  return GenerateVectorQueries(VectorDatasetKind::kClustered, kQueries,
                               kDim, kSeed + 1);
}

MTreeOptions SmallNodes() {
  MTreeOptions options;
  options.node_size_bytes = 512;  // A few levels even at this scale.
  return options;
}

shard::ShardedMTree<VecTraits> BuildSharded(size_t num_shards,
                                            shard::Assignment assignment) {
  shard::ShardedOptions options;
  options.num_shards = num_shards;
  options.assignment = assignment;
  options.tree = SmallNodes();
  return shard::ShardedMTree<VecTraits>::Create(Dataset(), L2Distance{},
                                               options);
}

template <typename Object>
void ExpectSameResults(const std::vector<SearchResult<Object>>& expected,
                       const std::vector<SearchResult<Object>>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].oid, actual[i].oid) << "position " << i;
    EXPECT_DOUBLE_EQ(expected[i].distance, actual[i].distance)
        << "position " << i;
  }
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// The annulus bound alone: max(dp - rmax, rmin - dp, 0).
double AnnulusBound(const shard::ShardedMTree<VecTraits>& index, size_t s,
                    double dp) {
  const auto& sidecar = index.sidecar(s);
  return std::max({dp - sidecar.rmax, sidecar.rmin - dp, 0.0});
}

/// The plan the router must produce, built from scratch: pivot distances,
/// annulus bounds maxed with the Voronoi bound (dp_s - min_j dp_j) / 2 on
/// clustered shards, nearest-first order by (bound, pivot distance, id),
/// and costs from the shard models evaluated on this call. Range: every
/// non-empty shard at Eqs. 6/7 for r, skipped when its bound exceeds r.
/// k-NN (`knn`): the home shard at NnNodes/NnDistances(k), each later
/// shard whose bound is <= r̂ = the home model's ExpectedNnDistance(k) at
/// Eqs. 6/7 for r̂, the rest zero; k clamped to the shard size.
shard::RoutePlan DirectPlan(const shard::ShardedMTree<VecTraits>& index,
                            const FloatVector& query, bool knn, size_t k,
                            double radius) {
  shard::RoutePlan plan;
  double nearest = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < index.num_shards(); ++s) {
    shard::ShardDecision d;
    d.shard = s;
    if (index.tree(s).size() == 0) {
      d.dispatched = false;
      d.reason = "skip:empty";
      d.lower_bound = std::numeric_limits<double>::infinity();
    } else {
      d.pivot_distance = L2Distance{}(query, index.sidecar(s).pivot);
      d.lower_bound = AnnulusBound(index, s, d.pivot_distance);
      nearest = std::min(nearest, d.pivot_distance);
    }
    plan.decisions.push_back(d);
  }
  for (auto& d : plan.decisions) {
    if (d.dispatched &&
        index.assignment() == shard::Assignment::kClustered) {
      d.lower_bound =
          std::max(d.lower_bound, (d.pivot_distance - nearest) / 2.0);
    }
    if (knn || !d.dispatched) continue;
    const auto& model = index.sidecar(d.shard).model;
    if (model.has_value()) {
      d.predicted_nodes = model->RangeNodes(radius);
      d.predicted_dists = model->RangeDistances(radius);
    }
    if (d.lower_bound > radius) {
      d.dispatched = false;
      d.reason = AnnulusBound(index, d.shard, d.pivot_distance) > radius
                     ? "skip:annulus"
                     : "skip:voronoi";
    } else {
      plan.predicted_nodes += d.predicted_nodes;
    }
  }
  for (const auto& d : plan.decisions) {
    if (d.dispatched) {
      plan.order.push_back(d.shard);
    } else {
      ++plan.skipped;
    }
  }
  std::sort(plan.order.begin(), plan.order.end(), [&](size_t a, size_t b) {
    const auto& da = plan.decisions[a];
    const auto& db = plan.decisions[b];
    if (da.lower_bound != db.lower_bound) {
      return da.lower_bound < db.lower_bound;
    }
    if (da.pivot_distance != db.pivot_distance) {
      return da.pivot_distance < db.pivot_distance;
    }
    return a < b;
  });
  if (!knn || plan.order.empty()) return plan;
  const size_t home = plan.order.front();
  const auto& home_model = index.sidecar(home).model;
  const size_t home_k = std::min(k, index.tree(home).size());
  const double r_hat =
      home_model.has_value() && home_k > 0
          ? home_model->nn_model().ExpectedNnDistance(home_k)
          : 0.0;
  for (const size_t s : plan.order) {
    auto& d = plan.decisions[s];
    const auto& model = index.sidecar(s).model;
    if (s != home && d.lower_bound > r_hat) continue;
    if (model.has_value()) {
      d.predicted_nodes =
          s == home ? model->NnNodes(home_k) : model->RangeNodes(r_hat);
      d.predicted_dists =
          s == home ? model->NnDistances(home_k) : model->RangeDistances(r_hat);
    }
    plan.predicted_nodes += d.predicted_nodes;
  }
  return plan;
}

/// Bit-identical plans. With `exact_costs` false the predicted costs may
/// differ in the last few ulps (a reopened index renormalizes its
/// persisted histogram masses); decisions, bounds and order may not.
void ExpectSamePlan(const shard::RoutePlan& want, const shard::RoutePlan& got,
                    bool exact_costs = true) {
  const auto expect_same_cost = [exact_costs](double w, double g) {
    if (exact_costs) {
      EXPECT_EQ(Bits(g), Bits(w));
    } else {
      EXPECT_NEAR(g, w, 1e-12 * std::max(1.0, w));
    }
  };
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (size_t s = 0; s < want.decisions.size(); ++s) {
    const auto& w = want.decisions[s];
    const auto& g = got.decisions[s];
    EXPECT_EQ(g.shard, w.shard);
    EXPECT_EQ(g.dispatched, w.dispatched) << "shard " << s;
    EXPECT_EQ(std::string(g.reason), std::string(w.reason)) << "shard " << s;
    EXPECT_EQ(Bits(g.pivot_distance), Bits(w.pivot_distance))
        << "shard " << s;
    EXPECT_EQ(Bits(g.lower_bound), Bits(w.lower_bound)) << "shard " << s;
    SCOPED_TRACE("shard " + std::to_string(s));
    expect_same_cost(w.predicted_nodes, g.predicted_nodes);
    expect_same_cost(w.predicted_dists, g.predicted_dists);
  }
  EXPECT_EQ(got.order, want.order);
  expect_same_cost(want.predicted_nodes, got.predicted_nodes);
  EXPECT_EQ(got.skipped, want.skipped);
}

size_t SmallestShard(const shard::ShardedMTree<VecTraits>& index) {
  size_t smallest = std::numeric_limits<size_t>::max();
  for (size_t s = 0; s < index.num_shards(); ++s) {
    smallest = std::min(smallest, index.tree(s).size());
  }
  return smallest;
}

TEST(ShardPlanner, CoversEveryObjectExactlyOnce) {
  const auto objects = Dataset();
  for (const auto assignment :
       {shard::Assignment::kHash, shard::Assignment::kClustered}) {
    const auto plan =
        shard::PlanShards(objects, L2Distance{}, 8, assignment, kSeed);
    std::set<size_t> seen;
    for (const auto& members : plan.members) {
      for (const size_t position : members) {
        EXPECT_TRUE(seen.insert(position).second)
            << "position " << position << " assigned twice";
      }
    }
    EXPECT_EQ(seen.size(), objects.size());
  }
}

TEST(ShardPlanner, ClusteredShardsAreNonEmpty) {
  const auto objects = Dataset();
  const auto plan = shard::PlanShards(objects, L2Distance{}, 8,
                                      shard::Assignment::kClustered, kSeed);
  for (size_t s = 0; s < plan.members.size(); ++s) {
    EXPECT_FALSE(plan.members[s].empty()) << "shard " << s;
  }
}

// N=1: answers AND counters must match the unsharded tree bit for bit —
// the sharded build with one shard is the same bulk load, and the router
// passes the query straight through.
TEST(ShardRouter, SingleShardBitIdenticalIncludingCounters) {
  const auto objects = Dataset();
  const auto queries = Queries();
  const auto unsharded =
      MTree<VecTraits>::BulkLoad(objects, L2Distance{}, SmallNodes());
  const auto sharded = BuildSharded(1, shard::Assignment::kClustered);
  const Router router(sharded);
  const double radius = 0.5;
  for (const auto& q : queries) {
    QueryStats expected_stats;
    QueryStats actual_stats;
    ExpectSameResults(unsharded.RangeSearch(q, radius, &expected_stats),
                      router.RangeSearch(q, radius, &actual_stats));
    EXPECT_EQ(expected_stats.distance_computations,
              actual_stats.distance_computations);
    EXPECT_EQ(expected_stats.nodes_accessed, actual_stats.nodes_accessed);

    ExpectSameResults(unsharded.KnnSearch(q, 10, &expected_stats),
                      router.KnnSearch(q, 10, &actual_stats));
    EXPECT_EQ(expected_stats.distance_computations,
              actual_stats.distance_computations);
    EXPECT_EQ(expected_stats.nodes_accessed, actual_stats.nodes_accessed);
  }
}

// Any shard count, both assignment policies, routing on and off: the
// merged answers match the unsharded index exactly.
TEST(ShardRouter, AnswersMatchUnshardedAtAnyShardCount) {
  const auto objects = Dataset();
  const auto queries = Queries();
  const auto unsharded =
      MTree<VecTraits>::BulkLoad(objects, L2Distance{}, SmallNodes());
  for (const auto assignment :
       {shard::Assignment::kHash, shard::Assignment::kClustered}) {
    for (const size_t num_shards : {2u, 4u, 16u}) {
      const auto sharded = BuildSharded(num_shards, assignment);
      ASSERT_EQ(sharded.size(), objects.size());
      for (const bool cost_routing : {false, true}) {
        shard::RouterOptions options;
        options.cost_routing = cost_routing;
        const Router router(sharded, options);
        for (const auto& q : queries) {
          for (const double radius : {0.15, 0.5, 1.5}) {
            ExpectSameResults(unsharded.RangeSearch(q, radius),
                              router.RangeSearch(q, radius));
          }
          for (const size_t k : {1u, 5u, 20u}) {
            ExpectSameResults(unsharded.KnnSearch(q, k),
                              router.KnnSearch(q, k));
          }
        }
      }
    }
  }
}

// Every shard a plan skips provably contains no result, for both
// assignments: brute-force every member of each range-plan skip (all
// farther than the radius) and of each k-NN execution-time skip (all
// farther than the final r_k, which is at most the running bound the
// shard was skipped against). Each proof must actually fire, or the
// check would pass vacuously; hash shards never name the Voronoi proof.
TEST(ShardRouter, SkippedShardsProvablyEmpty) {
  const auto objects = Dataset();
  const auto queries = Queries();
  const L2Distance metric;
  for (const auto assignment :
       {shard::Assignment::kHash, shard::Assignment::kClustered}) {
    const auto sharded = BuildSharded(8, assignment);
    const Router router(sharded);
    std::map<std::string, size_t> skips;
    for (const auto& q : queries) {
      for (const double radius : {0.1, 0.3, 0.8}) {
        const auto plan = router.PlanRange(q, radius);
        for (const auto& decision : plan.decisions) {
          if (decision.dispatched) continue;
          ++skips[std::string("range ") + decision.reason];
          for (const uint64_t oid : sharded.shard_oids(decision.shard)) {
            EXPECT_GT(metric(q, objects[oid]), radius)
                << "shard " << decision.shard << " skipped but oid " << oid
                << " is a result";
          }
        }
      }
      for (const size_t k : {size_t{1}, size_t{10}}) {
        const auto answer = router.KnnSearch(q, k);
        ASSERT_EQ(answer.size(), k);
        const double r_k = answer.back().distance;
        const auto report = router.ExplainKnn(q, k);
        for (const auto& row : report.rows) {
          if (row.dispatched) continue;
          ++skips["knn " + row.reason];
          EXPECT_GT(row.lower_bound, r_k) << "shard " << row.shard;
          for (const uint64_t oid : sharded.shard_oids(row.shard)) {
            EXPECT_GT(metric(q, objects[oid]), r_k)
                << "shard " << row.shard << " skipped but oid " << oid
                << " can enter the top " << k;
          }
        }
      }
    }
    if (assignment == shard::Assignment::kClustered) {
      EXPECT_GT(skips["range skip:annulus"], 0u);
      EXPECT_GT(skips["range skip:voronoi"], 0u);
      EXPECT_GT(skips["knn skip:bound"], 0u);
      EXPECT_GT(skips["knn skip:voronoi"], 0u);
    } else {
      EXPECT_EQ(skips["range skip:voronoi"], 0u);
      EXPECT_EQ(skips["knn skip:voronoi"], 0u);
    }
  }
}

// Hash shards hold members from all over the space, so the Voronoi bound
// would be unsound there: every hash-shard bound is the annulus bound
// exactly, in range and k-NN plans alike.
TEST(ShardRouter, HashShardsNeverGetTheVoronoiBound) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(8, shard::Assignment::kHash);
  const Router router(sharded);
  for (const auto& q : queries) {
    for (const auto& plan : {router.PlanRange(q, 0.3), router.PlanKnn(q, 10)}) {
      for (const auto& d : plan.decisions) {
        ASSERT_GT(sharded.tree(d.shard).size(), 0u);
        EXPECT_EQ(Bits(d.lower_bound),
                  Bits(AnnulusBound(sharded, d.shard, d.pivot_distance)))
            << "shard " << d.shard;
        EXPECT_NE(std::string(d.reason), "skip:voronoi");
      }
    }
  }
}

// An object equidistant to two seeds sits with the lower shard id, and
// the Voronoi bound is exactly its distance from a query on the far side
// of the bisector: 1-D points 0..8, seeds 6 and 8, tie object 7, query
// 7.5. The bound (1.5 - 0.5) / 2 = 0.5 equals d(Q, 7) while the annulus
// proves nothing, so radius 0.5 must still dispatch shard 0 (strict
// skip test) and a smaller radius skips it by the Voronoi proof. The 1-NN
// ties too (7 and 8 both at 0.5): the home shard 1 returns 8, shard 0 is
// searched with r_k = 0.5 and the lower oid 7 wins.
TEST(ShardRouter, ObjectEquidistantToTwoSeedsIsNeverLost) {
  std::vector<FloatVector> objects;
  for (int x = 0; x <= 8; ++x) objects.push_back({static_cast<float>(x)});
  shard::ShardedOptions options;
  options.num_shards = 2;
  options.assignment = shard::Assignment::kClustered;
  bool found = false;
  for (uint64_t seed = 0; seed < 1000 && !found; ++seed) {
    const auto plan = shard::PlanShards(objects, L2Distance{}, 2,
                                        shard::Assignment::kClustered, seed);
    found = plan.pivot_positions == std::vector<size_t>{6, 8};
    options.seed = seed;
  }
  ASSERT_TRUE(found) << "no seed samples the pivots {6, 8}";
  const auto sharded = shard::ShardedMTree<VecTraits>::Create(
      objects, L2Distance{}, options);
  ASSERT_EQ(sharded.shard_oids(0).back(), 7u);  // The tie went to shard 0.
  const Router router(sharded);
  const auto unsharded = MTree<VecTraits>::BulkLoad(objects, L2Distance{},
                                                    MTreeOptions());
  const FloatVector q = {7.5f};

  const auto plan = router.PlanRange(q, 0.5);
  EXPECT_EQ(plan.decisions[0].lower_bound, 0.5);
  EXPECT_LT(AnnulusBound(sharded, 0, plan.decisions[0].pivot_distance), 0.5);
  EXPECT_TRUE(plan.decisions[0].dispatched);
  ExpectSameResults(unsharded.RangeSearch(q, 0.5), router.RangeSearch(q, 0.5));
  ASSERT_EQ(router.RangeSearch(q, 0.5).size(), 2u);

  const auto tighter = router.PlanRange(q, 0.49);
  EXPECT_FALSE(tighter.decisions[0].dispatched);
  EXPECT_EQ(std::string(tighter.decisions[0].reason), "skip:voronoi");
  ExpectSameResults(unsharded.RangeSearch(q, 0.49),
                    router.RangeSearch(q, 0.49));

  const auto report = router.ExplainKnn(q, 1);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].shard, 1u);  // Home: the nearer seed.
  EXPECT_EQ(report.rows[1].shard, 0u);
  EXPECT_TRUE(report.rows[1].dispatched);
  EXPECT_EQ(report.rows[1].radius_sent, 0.5);
  const auto nearest = router.KnnSearch(q, 1);
  ExpectSameResults(unsharded.KnnSearch(q, 1), nearest);
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].oid, 7u);
}

// Cost routing must reduce total node reads on the clustered workload
// (skips + nearest-first k-NN bounds), while answers stay identical.
TEST(ShardRouter, CostRoutingReadsFewerNodes) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(8, shard::Assignment::kClustered);
  shard::RouterOptions naive_options;
  naive_options.cost_routing = false;
  const Router naive(sharded, naive_options);
  const Router routed(sharded);
  uint64_t naive_nodes = 0;
  uint64_t routed_nodes = 0;
  for (const auto& q : queries) {
    QueryStats naive_stats;
    QueryStats routed_stats;
    ExpectSameResults(naive.RangeSearch(q, 0.3, &naive_stats),
                      routed.RangeSearch(q, 0.3, &routed_stats));
    naive_nodes += naive_stats.nodes_accessed;
    routed_nodes += routed_stats.nodes_accessed;

    ExpectSameResults(naive.KnnSearch(q, 5, &naive_stats),
                      routed.KnnSearch(q, 5, &routed_stats));
    naive_nodes += naive_stats.nodes_accessed;
    routed_nodes += routed_stats.nodes_accessed;
  }
  EXPECT_LT(routed_nodes, naive_nodes);
}

// The router is a MetricIndex: batch execution over it is bit-identical
// at any thread count (and to the sequential loop).
TEST(ShardRouter, BatchExecutionThreadCountInvariant) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(4, shard::Assignment::kClustered);
  const Router router(sharded);
  const double radius = 0.5;
  std::vector<std::vector<SearchResult<FloatVector>>> sequential;
  for (const auto& q : queries) {
    sequential.push_back(router.RangeSearch(q, radius));
  }
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    engine::ExecutorOptions options;
    options.num_threads = threads;
    const engine::BatchExecutor<Router> executor(router, options);
    const auto batch = executor.RangeSearchBatch(queries, radius);
    ASSERT_EQ(batch.results.size(), sequential.size());
    ASSERT_EQ(batch.latencies_us.size(), queries.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      ExpectSameResults(sequential[i], batch.results[i]);
      EXPECT_GT(batch.latencies_us[i], 0.0);
    }
  }
}

// A tiny predicted-node budget forces queries to queue; the batch must
// still complete with identical answers (no deadlock, no loss).
TEST(ShardRouter, AdmissionControlUnderTinyBudget) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(4, shard::Assignment::kClustered);
  const Router unthrottled(sharded);
  shard::RouterOptions options;
  options.inflight_budget = 2.0;  // Far below any query's demand.
  options.per_shard_inflight = 1;
  const Router throttled(sharded, options);
  engine::ExecutorOptions executor_options;
  executor_options.num_threads = 8;
  const engine::BatchExecutor<Router> executor(throttled, executor_options);
  const auto batch = executor.RangeSearchBatch(queries, 0.5);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResults(unthrottled.RangeSearch(queries[i], 0.5),
                      batch.results[i]);
  }
}

// EXPLAIN rows account for every shard and reconcile with the totals.
TEST(ShardRouter, ExplainReportAccountsForEveryShard) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(8, shard::Assignment::kClustered);
  const Router router(sharded);
  const auto report = router.ExplainRange(queries[0], 0.3);
  EXPECT_EQ(report.rows.size(), sharded.num_shards());
  EXPECT_EQ(report.dispatched + report.skipped, sharded.num_shards());
  uint64_t nodes = 0;
  for (const auto& row : report.rows) {
    if (!row.dispatched) {
      EXPECT_GT(row.lower_bound, 0.3);
      EXPECT_EQ(row.actual_nodes, 0u);
    }
    nodes += row.actual_nodes;
  }
  EXPECT_EQ(nodes, report.actual_nodes);

  const auto knn_report = router.ExplainKnn(queries[0], 5);
  EXPECT_EQ(knn_report.rows.size(), sharded.num_shards());
  EXPECT_EQ(knn_report.results, 5u);
}

// Plans are bit-identical to the shard models evaluated directly: k-NN
// plans on the first (cold) and repeated (memoized) call of each k,
// including a k above the smallest shard's size, and range plans. The
// memo changes no counter: each plan charges one pivot distance per
// non-empty shard.
TEST(ShardRouter, PlansMatchDirectModelEvaluationBitForBit) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(8, shard::Assignment::kClustered);
  const Router router(sharded);
  const size_t above_smallest = SmallestShard(sharded) + 3;
  ASSERT_LT(above_smallest, kN);
  for (size_t qi = 0; qi < 5; ++qi) {
    const auto& q = queries[qi];
    for (const size_t k : {size_t{1}, size_t{10}, above_smallest}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        QueryStats stats;
        const auto plan = router.PlanKnn(q, k, &stats);
        ExpectSamePlan(DirectPlan(sharded, q, true, k, 0.0), plan);
        EXPECT_EQ(stats.distance_computations, sharded.num_shards());
      }
    }
    for (const double radius : {0.1, 0.3, 0.5}) {
      ExpectSamePlan(DirectPlan(sharded, q, false, 0, radius),
                     router.PlanRange(q, radius));
    }
  }
}

// More distinct k than the memo keeps (64): the k past the bound are
// priced per call, uncached, and their plans stay exact.
TEST(ShardRouter, KnnPlansStayExactPastTheMemoBound) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(4, shard::Assignment::kClustered);
  const Router router(sharded);
  for (size_t k = 1; k <= 70; ++k) {
    ExpectSamePlan(DirectPlan(sharded, queries[0], true, k, 0.0),
                   router.PlanKnn(queries[0], k));
  }
  for (const size_t k : {size_t{70}, size_t{1}}) {
    ExpectSamePlan(DirectPlan(sharded, queries[2], true, k, 0.0),
                   router.PlanKnn(queries[2], k));
  }
}

// Eight threads make the first call for the same new k at once: every
// caller computes or reuses the per-shard costs, and all plans match.
TEST(ShardRouter, ConcurrentFirstKnnPlansAgree) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(8, shard::Assignment::kClustered);
  const Router router(sharded);
  constexpr size_t kThreads = 8;
  constexpr size_t kK = 7;
  std::vector<shard::RoutePlan> plans(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      plans[t] = router.PlanKnn(queries[t], kK);
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ExpectSamePlan(DirectPlan(sharded, queries[t], true, kK, 0.0), plans[t]);
  }
}

// EXPLAIN k-NN rows carry the direct model costs, cold and warm alike.
TEST(ShardRouter, ExplainKnnRowsMatchDirectModelEvaluation) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(8, shard::Assignment::kClustered);
  const Router router(sharded);
  for (const size_t k : {size_t{5}, SmallestShard(sharded) + 3}) {
    const auto want = DirectPlan(sharded, queries[1], true, k, 0.0);
    const auto cold = router.ExplainKnn(queries[1], k);
    const auto warm = router.ExplainKnn(queries[1], k);
    ASSERT_EQ(cold.rows.size(), sharded.num_shards());
    ASSERT_EQ(warm.rows.size(), cold.rows.size());
    EXPECT_EQ(Bits(warm.predicted_nodes), Bits(cold.predicted_nodes));
    for (size_t i = 0; i < cold.rows.size(); ++i) {
      const auto& row = cold.rows[i];
      const auto& d = want.decisions[row.shard];
      EXPECT_EQ(Bits(row.predicted_nodes), Bits(d.predicted_nodes));
      EXPECT_EQ(Bits(row.predicted_dists), Bits(d.predicted_dists));
      EXPECT_EQ(Bits(row.lower_bound), Bits(d.lower_bound));
      const auto& again = warm.rows[i];
      EXPECT_EQ(again.shard, row.shard);
      EXPECT_EQ(again.reason, row.reason);
      EXPECT_EQ(Bits(again.predicted_nodes), Bits(row.predicted_nodes));
      EXPECT_EQ(Bits(again.predicted_dists), Bits(row.predicted_dists));
      EXPECT_EQ(again.actual_nodes, row.actual_nodes);
      EXPECT_EQ(again.actual_dists, row.actual_dists);
    }
  }
}

// Save + reopen: identical answers and bit-identical range and k-NN plans,
// Voronoi bounds included.
TEST(ShardedMTree, PersistenceRoundTrip) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(4, shard::Assignment::kClustered);
  const Router router(sharded);

  std::string path = ::testing::TempDir() + "/sharded_roundtrip";
  SaveShardedMTree(sharded, path);
  shard::ShardedOptions open_options;
  open_options.tree = SmallNodes();
  const auto reopened = shard::OpenShardedMTree<VecTraits>(
      path, L2Distance{}, open_options);
  EXPECT_EQ(reopened.num_shards(), sharded.num_shards());
  EXPECT_EQ(reopened.size(), sharded.size());
  EXPECT_DOUBLE_EQ(reopened.d_plus(), sharded.d_plus());
  const Router reopened_router(reopened);
  size_t voronoi_tightened = 0;
  for (const auto& q : queries) {
    ExpectSameResults(router.RangeSearch(q, 0.5),
                      reopened_router.RangeSearch(q, 0.5));
    ExpectSameResults(router.KnnSearch(q, 10),
                      reopened_router.KnnSearch(q, 10));
    const auto before = router.PlanRange(q, 0.3);
    ExpectSamePlan(before, reopened_router.PlanRange(q, 0.3),
                   /*exact_costs=*/false);
    ExpectSamePlan(router.PlanKnn(q, 10), reopened_router.PlanKnn(q, 10),
                   /*exact_costs=*/false);
    for (const auto& d : before.decisions) {
      if (d.lower_bound > AnnulusBound(sharded, d.shard, d.pivot_distance)) {
        ++voronoi_tightened;
      }
    }
  }
  // The reopened index keeps its clustered tag, so the Voronoi bound is
  // part of the plans compared above.
  EXPECT_EQ(reopened.assignment(), shard::Assignment::kClustered);
  EXPECT_GT(voronoi_tightened, 0u);
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
    std::remove((path + ".shard" + std::to_string(s) + ".meta").c_str());
  }
  std::remove((path + ".shards").c_str());
}

}  // namespace
}  // namespace mcm
