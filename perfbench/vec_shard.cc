// vec-shard: the vec-paged dataset (1M clustered L2 vectors, dim 8) split
// into a 16-shard in-memory ShardedMTree (clustered assignment) and served
// by a ShardRouter with default RouterOptions through a BatchExecutor of
// nproc - 1 workers. The client is a closed loop of fixed-size batches
// that alternate range (128 queries) and k-NN (32). Storage does no work
// here: routing, the cost model and the executor dominate.
//
// The traced run builds the index over the timed metric and wraps the
// router in PlanTimedRouter, which times PlanRange/PlanKnn on the same
// query before running it.

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "mcm/baseline/linear_scan.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/engine/executor.h"
#include "mcm/metric/traits.h"
#include "mcm/shard/router.h"
#include "mcm/shard/sharded_index.h"

namespace perfbench {
namespace {

constexpr size_t kShards = 16;
constexpr size_t kK = 10;
// Range batches are larger so both operation types get enough samples for
// a p95 (a k-NN costs about 25 range queries).
constexpr size_t kRangeBatch = 128;
constexpr size_t kKnnBatch = 32;
constexpr size_t kCheckQueries = 64;  ///< Alternating range / k-NN.
constexpr size_t kSampleEvery = 64;   ///< Window answers kept for the oracle.
constexpr size_t kSetups = 3;

using Object = mcm::FloatVector;
using PlainTraits = mcm::VectorTraits<mcm::L2Distance>;
using TracedTraits = mcm::VectorTraits<TimedMetric<mcm::L2Distance>>;

using Inputs = VectorInputs;

/// Executor workers: one fewer than the host's cores (3 on a 4-core host).
/// With every core busy, any other runnable thread on the host preempts a
/// worker mid-query and the tail latency measures the co-tenants.
size_t Workers() {
  const size_t cores = std::max<unsigned>(1, std::thread::hardware_concurrency());
  return std::max<size_t>(1, cores - 1);
}

template <typename Traits>
struct Built {
  std::unique_ptr<mcm::shard::ShardedMTree<Traits>> index;
  double radius = 0;
  double histogram_s = 0, load_s = 0, total_s = 0;
  uint64_t build_dists = 0;  ///< Traced builds only (timed metric calls).
};

template <typename Traits>
Built<Traits> Setup(const Inputs& in) {
  using Metric = typename Traits::Metric;
  Built<Traits> b;
  const uint64_t start = mcm::MonotonicNanos();
  mcm::EstimatorOptions est;
  est.seed = kDatasetSeed;
  est.d_plus = mcm::shard::DeriveDPlusSample(in.objects, Metric());
  est.num_bins = 10000;
  est.max_pairs = 2000000;
  const auto f = mcm::EstimateDistanceDistribution(in.objects, Metric(), est);
  b.radius = f.Quantile(10.0 / static_cast<double>(in.objects.size()));
  b.histogram_s = SecondsSince(start);

  const uint64_t t = mcm::MonotonicNanos();
  const uint64_t calls0 = AllThreadsTally().metric_calls;
  mcm::shard::ShardedOptions options;
  options.num_shards = kShards;
  options.assignment = mcm::shard::Assignment::kClustered;
  options.tree.build_threads = 4;
  options.d_plus = est.d_plus;
  b.index = std::make_unique<mcm::shard::ShardedMTree<Traits>>(
      mcm::shard::ShardedMTree<Traits>::Create(in.objects, Metric(), options));
  b.build_dists = AllThreadsTally().metric_calls - calls0;
  b.load_s = SecondsSince(t);
  b.total_s = SecondsSince(start);
  return b;
}

/// Index counters that must not depend on scheduling.
template <typename Traits>
ExactCounters IndexCounters(const mcm::shard::ShardedMTree<Traits>& index) {
  ExactCounters e;
  uint64_t nodes = 0;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    nodes += index.tree(s).store().NumNodes();
    e["shard" + std::to_string(s) + ".objects"] = index.tree(s).size();
  }
  e["index.nodes"] = nodes;
  return e;
}

double SpaceAmp(const ExactCounters& e, const Inputs& in) {
  const double index_bytes =
      static_cast<double>(e.at("index.nodes")) *
      static_cast<double>(mcm::MTreeOptions().node_size_bytes);
  const double raw_bytes = static_cast<double>(
      in.objects.size() * in.objects[0].size() * sizeof(float));
  return index_bytes / raw_bytes;
}

struct CheckResult {
  ExactCounters exact;
  uint64_t mismatches = 0;
  double pred_rel_err = 0;
  double dispatched_per_op = 0;
  double skipped_per_op = 0;
  mcm::QueryStats totals;
};

/// Single-threaded check pass straight through the router: plans, exact
/// counters, and every answer against the linear-scan oracle.
template <typename Traits>
CheckResult CheckPass(const mcm::shard::ShardRouter<Traits>& router,
                      const Inputs& in, double radius,
                      const mcm::LinearScan<PlainTraits>& oracle) {
  CheckResult r;
  r.exact = IndexCounters(router.index());
  uint64_t range_results = 0, dispatched = 0, skipped = 0;
  double rel_err = 0;
  for (size_t i = 0; i < kCheckQueries; ++i) {
    const Object& q = in.queries[i];
    const bool range = i % 2 == 0;
    const mcm::shard::RoutePlan plan =
        range ? router.PlanRange(q, radius) : router.PlanKnn(q, kK);
    mcm::QueryStats st;
    const auto got = range ? router.RangeSearch(q, radius, &st)
                           : router.KnnSearch(q, kK, &st);
    const auto want = range ? oracle.RangeSearch(q, radius)
                            : oracle.KnnSearch(q, kK);
    if (!SameAnswers(want, got)) ++r.mismatches;
    if (range) range_results += got.size();
    dispatched += plan.order.size();
    skipped += plan.skipped;
    const double actual = static_cast<double>(st.nodes_accessed);
    rel_err += std::abs(plan.predicted_nodes - actual) / std::max(1.0, actual);
    r.totals += st;
  }
  const double n = static_cast<double>(kCheckQueries);
  r.exact["query.nodes"] = r.totals.nodes_accessed;
  r.exact["query.dists"] = r.totals.distance_computations;
  r.exact["query.pruned"] = r.totals.nodes_pruned;
  r.exact["query.witness_avoided"] = r.totals.distance_calcs_avoided_by_witness;
  r.exact["range.results"] = range_results;
  r.exact["plan.dispatched"] = dispatched;
  r.exact["plan.skipped"] = skipped;
  r.pred_rel_err = rel_err / n;
  r.dispatched_per_op = static_cast<double>(dispatched) / n;
  r.skipped_per_op = static_cast<double>(skipped) / n;
  return r;
}

/// Traced-run index: times the router's plan for the query, then runs the
/// query, and attributes the query's metric time from the worker's tally.
template <typename Traits>
class PlanTimedRouter {
 public:
  using Object = typename Traits::Object;
  using Result = mcm::SearchResult<Object>;

  struct Acc {
    uint64_t ops = 0;
    uint64_t plan_ns = 0;    ///< The timed plan replica.
    uint64_t search_ns = 0;  ///< The real query (which plans again inside).
    uint64_t metric_ns = 0;  ///< Metric time inside the real query.
    uint64_t metric_calls = 0;
  };

  explicit PlanTimedRouter(const mcm::shard::ShardRouter<Traits>& router)
      : router_(router) {}

  std::vector<Result> RangeSearch(const Object& q, double radius,
                                  mcm::QueryStats* st) const {
    return Timed(0, [&] { return router_.PlanRange(q, radius); },
                 [&] { return router_.RangeSearch(q, radius, st); });
  }

  std::vector<Result> KnnSearch(const Object& q, size_t k,
                                mcm::QueryStats* st) const {
    return Timed(1, [&] { return router_.PlanKnn(q, k); },
                 [&] { return router_.KnnSearch(q, k, st); });
  }

  size_t size() const { return router_.size(); }

  Acc acc(size_t op) const {
    std::lock_guard<std::mutex> lock(mu_);
    return acc_[op];
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    acc_[0] = acc_[1] = Acc();
  }

 private:
  template <typename PlanFn, typename SearchFn>
  std::vector<Result> Timed(size_t op, const PlanFn& plan,
                            const SearchFn& search) const {
    const uint64_t t0 = mcm::MonotonicNanos();
    plan();
    const uint64_t t1 = mcm::MonotonicNanos();
    const LayerTally before = ThreadTally();
    auto results = search();
    const LayerTally delta = ThreadTally() - before;
    const uint64_t t2 = mcm::MonotonicNanos();
    std::lock_guard<std::mutex> lock(mu_);
    Acc& a = acc_[op];
    ++a.ops;
    a.plan_ns += t1 - t0;
    a.search_ns += t2 - t1;
    a.metric_ns += delta.metric_ns;
    a.metric_calls += delta.metric_calls;
    return results;
  }

  const mcm::shard::ShardRouter<Traits>& router_;
  mutable std::mutex mu_;
  mutable Acc acc_[2];
};

/// Window results of the batch loop.
struct WindowResult {
  Samples latency[2];
  uint64_t ops = 0;
  double wall_s = 0;
  double busy_us = 0;
  uint64_t queued = 0;
  uint64_t range_results = 0;
  uint64_t mismatches = 0;
  uint64_t kept = 0;
};

/// Closed loop of fixed-size batches, alternating range and k-NN, for
/// `seconds` after one warm-up batch of each; a sample of answers is
/// checked against the oracle afterwards.
template <typename Index, typename Traits>
WindowResult Window(const Index& index,
                    const mcm::shard::ShardRouter<Traits>& router,
                    const Inputs& in, double radius, double seconds,
                    const mcm::LinearScan<PlainTraits>& oracle,
                    const std::function<void()>& after_warmup) {
  mcm::engine::ExecutorOptions options;
  options.num_threads = Workers();
  mcm::engine::BatchExecutor<Index> executor(index, options);
  WindowResult w;
  size_t next = kCheckQueries;
  auto batch_queries = [&](size_t size) {
    std::vector<Object> qs;
    for (size_t i = 0; i < size; ++i) {
      qs.push_back(in.queries[next++ % in.queries.size()]);
    }
    return qs;
  };
  executor.RangeSearchBatch(batch_queries(kRangeBatch), radius);
  executor.KnnSearchBatch(batch_queries(kKnnBatch), kK);
  after_warmup();
  struct Kept {
    bool range;
    Object query;
    std::vector<mcm::SearchResult<Object>> answers;
  };
  std::vector<Kept> kept;
  const uint64_t queued0 = router.queued_queries();
  const uint64_t start = mcm::MonotonicNanos();
  for (size_t b = 0; SecondsSince(start) < seconds; ++b) {
    const bool range = b % 2 == 0;
    const std::vector<Object> qs =
        batch_queries(range ? kRangeBatch : kKnnBatch);
    auto result = range ? executor.RangeSearchBatch(qs, radius)
                        : executor.KnnSearchBatch(qs, kK);
    for (size_t i = 0; i < qs.size(); ++i) {
      w.latency[range ? 0 : 1].Add(result.latencies_us[i]);
      w.busy_us += result.latencies_us[i];
      if (range) w.range_results += result.results[i].size();
      if ((w.ops + i) % kSampleEvery == 0) {
        kept.push_back({range, qs[i], std::move(result.results[i])});
      }
    }
    w.ops += qs.size();
  }
  w.wall_s = SecondsSince(start);
  w.queued = router.queued_queries() - queued0;
  for (const Kept& k : kept) {
    const auto want = k.range ? oracle.RangeSearch(k.query, radius)
                              : oracle.KnnSearch(k.query, kK);
    if (!SameAnswers(want, k.answers)) ++w.mismatches;
  }
  w.kept = kept.size();
  return w;
}

void ReportCheck(const CheckResult& c, Sink& sink, const char* what) {
  sink.Note(std::string(what) + ": " + std::to_string(kCheckQueries) +
            " answers checked against the linear scan, " +
            std::to_string(c.mismatches) + " mismatches");
  if (c.mismatches) sink.Fail(std::string(what) + ": wrong answers");
}

void ReportWindow(const WindowResult& w, double radius, Sink& sink,
                  const char* what) {
  sink.Note(std::string(what) + ": " + std::to_string(w.kept) +
            " answers checked against the linear scan, " +
            std::to_string(w.mismatches) + " mismatches");
  if (w.mismatches) sink.Fail(std::string(what) + ": wrong answers");
  const double mean = static_cast<double>(w.range_results) /
                      std::max<size_t>(1, w.latency[0].count());
  sink.Note("range radius " + std::to_string(radius) + ", mean results " +
            std::to_string(mean) + " (target 10)");
  if (!(mean >= 10.0 / 3.0 && mean <= 30.0)) {
    sink.Fail("mean range result count is off its target");
  }
  sink.Latency("range", w.latency[0]);
  sink.Latency("knn", w.latency[1]);
}

}  // namespace

int RunVecShard(const Args& args, Sink& sink) {
  const VectorInputs in = MakeVectorInputs(args.seed, 8192);
  const mcm::LinearScan<PlainTraits> oracle(in.objects, mcm::L2Distance());
  const double half = args.seconds / 2.0;

  if (!args.trace) {
    std::vector<double> setup_s;
    ExactCounters first;
    Built<PlainTraits> b;
    for (size_t i = 0; i < kSetups; ++i) {
      b = Built<PlainTraits>();
      b = Setup<PlainTraits>(in);
      setup_s.push_back(b.total_s);
      sink.Note("setup " + std::to_string(i) + ": " +
                std::to_string(b.total_s) + " s (histogram " +
                std::to_string(b.histogram_s) + ", load " +
                std::to_string(b.load_s) + ")");
      if (i == 0) {
        first = IndexCounters(*b.index);
      } else if (!CompareExact(first, IndexCounters(*b.index),
                               "repeated set-up")) {
        sink.Fail("set-up is not deterministic");
      }
    }
    const mcm::shard::ShardRouter<PlainTraits> router(*b.index);
    const CheckResult c = CheckPass(router, in, b.radius, oracle);
    ReportCheck(c, sink, "check pass");
    uint64_t hash = 1469598103934665603ull;
    for (const auto& [name, v] : c.exact) {
      sink.Note("exact " + name + " = " + std::to_string(v));
      hash = (hash ^ v) * 1099511628211ull;
    }
    sink.Note("exact-counter fingerprint " + std::to_string(hash));
    const WindowResult w =
        Window(router, router, in, b.radius, args.seconds, oracle, [] {});
    ReportWindow(w, b.radius, sink, "window");
    sink.attempted = kCheckQueries + w.ops;
    sink.failed = c.mismatches + w.mismatches;
    sink.Metric("range_p50_us", w.latency[0].Quantile(0.5), "us");
    sink.Metric("range_p95_us", w.latency[0].Quantile(0.95), "us");
    sink.Metric("knn_p50_us", w.latency[1].Quantile(0.5), "us");
    sink.Metric("knn_p95_us", w.latency[1].Quantile(0.95), "us");
    sink.Metric("ops_per_s", static_cast<double>(w.ops) / w.wall_s, "1/s");
    sink.Metric("setup_s", Median(setup_s), "s");
    sink.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    sink.Metric("space_amp", SpaceAmp(c.exact, in), "ratio");
    return 0;
  }

  // Traced run: plain index first (exact counters, untraced half-window).
  std::map<std::string, double> m;
  CheckResult plain;
  WindowResult untraced;
  {
    Built<PlainTraits> b = Setup<PlainTraits>(in);
    m["build.histogram_s"] = b.histogram_s;
    m["build.load_s"] = b.load_s;
    const mcm::shard::ShardRouter<PlainTraits> router(*b.index);
    plain = CheckPass(router, in, b.radius, oracle);
    ReportCheck(plain, sink, "check pass");
    untraced = Window(router, router, in, b.radius, half, oracle, [] {});
    ReportWindow(untraced, b.radius, sink, "untraced window");
  }
  SetMetricTiming(false);
  Built<TracedTraits> b = Setup<TracedTraits>(in);
  SetMetricTiming(true);
  m["build.dists_per_obj"] =
      static_cast<double>(b.build_dists) / static_cast<double>(in.objects.size());
  const mcm::shard::ShardRouter<TracedTraits> router(*b.index);
  const CheckResult c = CheckPass(router, in, b.radius, oracle);
  ReportCheck(c, sink, "traced check");
  if (!CompareExact(plain.exact, c.exact, "untraced vs traced")) {
    sink.Fail("the traced wrappers changed the exact counters");
  }
  const double n = static_cast<double>(kCheckQueries);
  m["mtree.nodes_per_op"] = c.totals.nodes_accessed / n;
  m["mtree.pruned_per_op"] = c.totals.nodes_pruned / n;
  m["metric.dists_per_op"] = c.totals.distance_computations / n;
  m["engine.witness_avoided_per_op"] =
      c.totals.distance_calcs_avoided_by_witness / n;
  m["shard.dispatched_per_op"] = c.dispatched_per_op;
  m["shard.skipped_per_op"] = c.skipped_per_op;
  m["cost.pred_nodes_rel_err"] = c.pred_rel_err;

  PlanTimedRouter<TracedTraits> timed(router);
  const WindowResult w =
      Window(timed, router, in, b.radius, half, oracle, [&] { timed.Reset(); });
  ReportWindow(w, b.radius, sink, "traced window");
  const char* names[2] = {"range", "knn"};
  double search_ns = 0, plan_ns = 0, metric_ns = 0, calls = 0, traced = 0,
         untraced_ns = 0;
  for (size_t op = 0; op < 2; ++op) {
    const auto a = timed.acc(op);
    OpLayers l;
    l.ops = a.ops;
    l.wall_ns = a.search_ns;
    l.untraced_mean_us = untraced.latency[op].Sum() /
                         std::max<size_t>(1, untraced.latency[op].count());
    l.AddLayer("shard.plan (timed replica)", a.plan_ns);
    l.AddLayer("metric", a.metric_ns);
    l.remainder_name = "shard.search";
    sink.LayerTable("vec-shard", names[op], l);
    m[op == 0 ? "shard.plan_range_us" : "shard.plan_knn_us"] =
        a.ops ? a.plan_ns * 1e-3 / a.ops : 0.0;
    search_ns += a.search_ns;
    plan_ns += a.plan_ns;
    metric_ns += a.metric_ns;
    calls += a.metric_calls;
    traced += a.search_ns;
    untraced_ns += l.untraced_mean_us * 1e3 * a.ops;
  }
  std::cout << "\n";
  const double ops = static_cast<double>(w.ops);
  m["shard.search_self_us_per_op"] =
      (search_ns - plan_ns - metric_ns) / ops * 1e-3;
  m["metric.us_per_op"] = metric_ns / ops * 1e-3;
  m["metric.ns_per_call"] = calls > 0 ? metric_ns / calls : 0.0;
  m["shard.queued_frac"] = static_cast<double>(w.queued) / ops;
  // Busy share of the untraced window (the traced one includes the plan
  // replicas).
  m["engine.worker_busy_frac"] =
      untraced.busy_us * 1e-6 / (untraced.wall_s * Workers());
  m["trace.overhead_frac"] = untraced_ns > 0 ? traced / untraced_ns - 1 : 0;
  sink.attempted = 2 * kCheckQueries + untraced.ops + w.ops;
  sink.failed = plain.mismatches + untraced.mismatches + c.mismatches +
                w.mismatches;
  EmitPerLayer(sink, m);
  return 0;
}

}  // namespace perfbench
