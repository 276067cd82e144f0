// The shard layer's contracts. The ones that matter most:
//
//  - N=1 degeneracy: one-shard execution is bit-identical to the
//    unsharded M-tree — the answer lists AND the distance/node counters.
//  - Any-N determinism: range and k-NN answers match the unsharded index
//    exactly (oids, distances, order) for both assignment policies, with
//    and without cost routing, and at any executor thread count.
//  - Provable skipping: every shard the range plan skips is exhaustively
//    verified to contain no result.
//  - k-NN bound propagation tightens work without changing answers.
//  - Admission control under a tiny budget neither deadlocks nor changes
//    batch results.
//  - Persistence round-trips trees and sidecars.
//  - Routing plans (and EXPLAIN rows) are bit-identical to the shard
//    models evaluated directly, whether a k-NN plan's memoized per-k
//    shard costs are cold, warm, or raced for by concurrent callers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
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

/// The plan the router must produce, built from scratch: annulus bounds
/// from the pivots, each shard's costs from its model evaluated on this
/// call (k clamped to the shard size), cheapest-first order. `knn`
/// selects NN(Q, k); otherwise range(Q, radius).
shard::RoutePlan DirectPlan(const shard::ShardedMTree<VecTraits>& index,
                            const FloatVector& query, bool knn, size_t k,
                            double radius) {
  shard::RoutePlan plan;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    shard::ShardDecision d;
    d.shard = s;
    const size_t size = index.tree(s).size();
    if (size == 0) {
      d.dispatched = false;
      d.reason = "skip:empty";
      d.lower_bound = std::numeric_limits<double>::infinity();
      plan.decisions.push_back(d);
      continue;
    }
    const auto& sidecar = index.sidecar(s);
    const double dp = L2Distance{}(query, sidecar.pivot);
    d.lower_bound = std::max({dp - sidecar.rmax, sidecar.rmin - dp, 0.0});
    if (sidecar.model.has_value()) {
      const auto& model = *sidecar.model;
      const size_t shard_k = std::min(k, size);
      d.predicted_nodes =
          knn ? model.NnNodes(shard_k) : model.RangeNodes(radius);
      d.predicted_dists =
          knn ? model.NnDistances(shard_k) : model.RangeDistances(radius);
    }
    if (!knn && d.lower_bound > radius) {
      d.dispatched = false;
      d.reason = "skip:annulus";
    }
    plan.decisions.push_back(d);
  }
  for (const auto& d : plan.decisions) {
    if (d.dispatched) {
      plan.order.push_back(d.shard);
      plan.predicted_nodes += d.predicted_nodes;
    } else {
      ++plan.skipped;
    }
  }
  std::sort(plan.order.begin(), plan.order.end(), [&](size_t a, size_t b) {
    const auto& da = plan.decisions[a];
    const auto& db = plan.decisions[b];
    if (da.predicted_nodes != db.predicted_nodes) {
      return da.predicted_nodes < db.predicted_nodes;
    }
    if (da.lower_bound != db.lower_bound) {
      return da.lower_bound < db.lower_bound;
    }
    return a < b;
  });
  return plan;
}

void ExpectSamePlan(const shard::RoutePlan& want,
                    const shard::RoutePlan& got) {
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (size_t s = 0; s < want.decisions.size(); ++s) {
    const auto& w = want.decisions[s];
    const auto& g = got.decisions[s];
    EXPECT_EQ(g.shard, w.shard);
    EXPECT_EQ(g.dispatched, w.dispatched) << "shard " << s;
    EXPECT_EQ(std::string(g.reason), std::string(w.reason)) << "shard " << s;
    EXPECT_EQ(Bits(g.lower_bound), Bits(w.lower_bound)) << "shard " << s;
    EXPECT_EQ(Bits(g.predicted_nodes), Bits(w.predicted_nodes))
        << "shard " << s;
    EXPECT_EQ(Bits(g.predicted_dists), Bits(w.predicted_dists))
        << "shard " << s;
  }
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(Bits(got.predicted_nodes), Bits(want.predicted_nodes));
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

// Every shard the plan skips provably contains no result: brute-force
// every member of the skipped shard and require d(Q, member) > radius.
TEST(ShardRouter, SkippedShardsProvablyEmpty) {
  const auto objects = Dataset();
  const auto queries = Queries();
  const L2Distance metric;
  const auto sharded = BuildSharded(8, shard::Assignment::kClustered);
  const Router router(sharded);
  size_t total_skips = 0;
  for (const auto& q : queries) {
    for (const double radius : {0.1, 0.3, 0.8}) {
      const auto plan = router.PlanRange(q, radius);
      for (const auto& decision : plan.decisions) {
        if (decision.dispatched) continue;
        ++total_skips;
        for (const uint64_t oid : sharded.shard_oids(decision.shard)) {
          EXPECT_GT(metric(q, objects[oid]), radius)
              << "shard " << decision.shard << " skipped but oid " << oid
              << " is a result";
        }
      }
    }
  }
  // The clustered workload at these radii must actually exercise the
  // skip path — a plan that never skips would vacuously pass.
  EXPECT_GT(total_skips, 0u);
}

// Cost routing must reduce total node reads on the clustered workload
// (skips + cheapest-first k-NN bounds), while answers stay identical.
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

// Save + reopen: identical answers and identical routing decisions.
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
  for (const auto& q : queries) {
    ExpectSameResults(router.RangeSearch(q, 0.5),
                      reopened_router.RangeSearch(q, 0.5));
    ExpectSameResults(router.KnnSearch(q, 10),
                      reopened_router.KnnSearch(q, 10));
    const auto before = router.PlanRange(q, 0.3);
    const auto after = reopened_router.PlanRange(q, 0.3);
    ASSERT_EQ(before.decisions.size(), after.decisions.size());
    for (size_t s = 0; s < before.decisions.size(); ++s) {
      EXPECT_EQ(before.decisions[s].dispatched,
                after.decisions[s].dispatched);
      EXPECT_DOUBLE_EQ(before.decisions[s].lower_bound,
                       after.decisions[s].lower_bound);
    }
    ASSERT_EQ(before.order.size(), after.order.size());
    for (size_t i = 0; i < before.order.size(); ++i) {
      EXPECT_EQ(before.order[i], after.order[i]);
    }
  }
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
    std::remove((path + ".shard" + std::to_string(s) + ".meta").c_str());
  }
  std::remove((path + ".shards").c_str());
}

}  // namespace
}  // namespace mcm
