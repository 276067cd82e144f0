// Extension: sharded scatter-gather search with cost-model routing.
// Clustered vector workload (L2, the paper's biased query model), split
// into 1 / 4 / 16 shards. For each shard count the same range and k-NN
// workloads run twice — naive scatter (every shard dispatched, shard
// order) and cost routing (provable annulus / Voronoi skips +
// nearest-first dispatch with k-NN bound propagation) — and the QPS grid
// answers the range workload through a BatchExecutor at 1/2/4/8 threads
// with per-query latency percentiles in the summary records. One admission
// case runs the 8-thread grid point under a deliberately small
// predicted-node budget to show queueing instead of buffer-pool thrash.
//
// The emitted BENCH_shard_scale.json backs three CTest gates:
//   bench_json_schema_shard   — schema (incl. latency_us percentiles);
//   bench_compare_shard       — routed_s<max> must read <= 0.85x the
//                               nodes of naive_s<max>;
//   bench_compare_shard_knn   — knn_routed_s<max> must read <= 0.75x
//                               the nodes of knn_naive_s<max>.
//
// Scale knobs: MCM_N (default 20000), MCM_QUERIES (default 100),
//              MCM_SHARDS (default "1,4,16"), MCM_SHARD_ASSIGN,
//              MCM_SHARD_INFLIGHT (admission budget for the qps cases).

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "mcm/bench_util/experiment.h"
#include "mcm/common/env.h"
#include "mcm/common/stopwatch.h"
#include "mcm/common/table_printer.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/obs/bench_observer.h"
#include "mcm/shard/router.h"
#include "mcm/shard/sharded_index.h"

namespace {

std::vector<size_t> ParseShardCounts(const std::string& spec) {
  std::vector<size_t> counts;
  size_t value = 0;
  bool in_number = false;
  for (const char c : spec) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<size_t>(c - '0');
      in_number = true;
    } else if (in_number) {
      if (value > 0) counts.push_back(value);
      value = 0;
      in_number = false;
    }
  }
  if (in_number && value > 0) counts.push_back(value);
  if (counts.empty()) counts = {1, 4, 16};
  return counts;
}

}  // namespace

int main() {
  using namespace mcm;
  using Traits = VectorTraits<L2Distance>;
  using Sharded = shard::ShardedMTree<Traits>;
  using Router = shard::ShardRouter<Traits>;

  const size_t n = static_cast<size_t>(GetEnvInt("MCM_N", 20000));
  const size_t num_queries =
      static_cast<size_t>(GetEnvInt("MCM_QUERIES", 100));
  const size_t dim = 8;
  const size_t k = 10;
  constexpr uint64_t kSeed = 42;
  const std::vector<size_t> shard_counts =
      ParseShardCounts(GetEnvString("MCM_SHARDS", "1,4,16"));
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  // Recorded in every case: the QPS grid's wall-clock numbers depend on it.
  const double host_cores =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));

  const auto objects =
      GenerateVectorDataset(VectorDatasetKind::kClustered, n, dim, kSeed);
  const auto queries = GenerateVectorQueries(VectorDatasetKind::kClustered,
                                             num_queries, dim, kSeed + 1);

  // Radius targeting ~10 results per query on average: F̂⁻¹(10/n) over
  // the global distance distribution.
  const double d_plus = shard::DeriveDPlusSample(objects, L2Distance{});
  EstimatorOptions estimate;
  estimate.d_plus = d_plus;
  estimate.max_pairs = 200000;
  const DistanceHistogram global_f =
      EstimateDistanceDistribution(objects, L2Distance{}, estimate);
  const double radius =
      global_f.Quantile(10.0 / static_cast<double>(n));

  std::cout << "== Sharded scatter-gather: clustered L2, n=" << n << ", "
            << num_queries << " queries, radius "
            << TablePrinter::Num(radius, 3) << " (≈10 results), k=" << k
            << ", " << host_cores << " core(s) ==\n\n";

  BenchObserver observer("shard_scale");
  Stopwatch watch;

  TablePrinter cost_table({"shards", "assign", "naive nodes",
                           "routed nodes", "saved", "skip/query",
                           "knn naive", "knn routed"});
  TablePrinter qps_table({"shards", "threads", "qps", "p50 us", "p95 us",
                          "p99 us"});

  for (const size_t num_shards : shard_counts) {
    shard::ShardedOptions build;
    build.num_shards = num_shards;
    build.d_plus = d_plus;
    build.seed = kSeed;
    const Sharded sharded = Sharded::Create(objects, L2Distance{}, build);

    shard::RouterOptions naive_options;
    naive_options.cost_routing = false;
    naive_options.inflight_budget = 0.0;  // Pure scatter baseline.
    const Router naive(sharded, naive_options);
    const Router routed(sharded);  // Cost routing + MCM_SHARD_INFLIGHT.

    const std::vector<std::pair<std::string, double>> params = {
        {"n", static_cast<double>(n)},
        {"shards", static_cast<double>(num_shards)},
        {"radius", radius},
        {"host_cores", host_cores}};
    const std::string suffix = "_s" + std::to_string(num_shards);

    const auto naive_range =
        MeasureRange(naive, queries, radius, &observer, "naive" + suffix,
                     {}, params);
    const auto routed_range =
        MeasureRange(routed, queries, radius, &observer, "routed" + suffix,
                     {}, params);
    const auto naive_knn = MeasureKnn(naive, queries, k, &observer,
                                      "knn_naive" + suffix, {}, params);
    const auto routed_knn = MeasureKnn(routed, queries, k, &observer,
                                       "knn_routed" + suffix, {}, params);

    // Skips per query, measured through one plan per query.
    double skips = 0.0;
    for (const auto& q : queries) {
      skips += static_cast<double>(routed.PlanRange(q, radius).skipped);
    }
    skips /= static_cast<double>(queries.size());

    const double saved =
        naive_range.avg_nodes > 0.0
            ? 100.0 * (1.0 - routed_range.avg_nodes / naive_range.avg_nodes)
            : 0.0;
    cost_table.AddRow(
        {std::to_string(num_shards), ToString(sharded.assignment()),
         TablePrinter::Num(naive_range.avg_nodes, 1),
         TablePrinter::Num(routed_range.avg_nodes, 1),
         TablePrinter::Num(saved, 1) + "%", TablePrinter::Num(skips, 2),
         TablePrinter::Num(naive_knn.avg_nodes, 1),
         TablePrinter::Num(routed_knn.avg_nodes, 1)});

    for (const size_t threads : thread_counts) {
      const auto result = MeasureRangeThroughput(
          routed, queries, radius, threads, &observer,
          "qps" + suffix + "_t" + std::to_string(threads), params);
      qps_table.AddRow({std::to_string(num_shards),
                        std::to_string(result.num_threads),
                        TablePrinter::Num(result.qps, 0),
                        TablePrinter::Num(result.latency_p50_us, 1),
                        TablePrinter::Num(result.latency_p95_us, 1),
                        TablePrinter::Num(result.latency_p99_us, 1)});
    }
  }

  // Admission showcase at the largest shard count: a small predicted-node
  // budget plus a per-shard concurrency cap, 8 threads. Same answers,
  // bounded in-flight work; the queued count shows the throttle engaged.
  {
    const size_t num_shards = shard_counts.back();
    shard::ShardedOptions build;
    build.num_shards = num_shards;
    build.d_plus = d_plus;
    build.seed = kSeed;
    const Sharded sharded = Sharded::Create(objects, L2Distance{}, build);
    shard::RouterOptions throttle;
    throttle.inflight_budget = 4.0;
    throttle.per_shard_inflight = 2;
    const Router admitted(sharded, throttle);
    const std::string label =
        "admission_s" + std::to_string(num_shards) + "_t8";
    const auto result = MeasureRangeThroughput(
        admitted, queries, radius, 8, &observer, label,
        {{"n", static_cast<double>(n)},
         {"shards", static_cast<double>(num_shards)},
         {"radius", radius},
         {"host_cores", host_cores},
         {"budget", throttle.inflight_budget}});
    std::cout << "admission (s=" << num_shards << ", t=8, budget "
              << throttle.inflight_budget << " nodes): "
              << TablePrinter::Num(result.qps, 0) << " qps, "
              << admitted.queued_queries() << "/" << num_queries
              << " queries queued\n\n";
  }

  cost_table.Print(std::cout);
  std::cout << "\n";
  qps_table.Print(std::cout);
  std::cout << "\nExpected shape: identical result counts for naive vs "
               "routed; routed node reads drop\nsteeply as shards grow "
               "(annulus / Voronoi skips on the clustered workload); QPS "
               "scales with\nthreads. Latency percentiles land in the summary "
               "records (p50/p95/p99).\nElapsed: "
            << TablePrinter::Num(watch.ElapsedSeconds(), 1) << " s\n";
  return 0;
}
