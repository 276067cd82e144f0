// Cost-model-aware scatter-gather router over a ShardedMTree. For every
// query the router computes each shard's pivot distance dp = d(Q, pivot_s),
// prices the shards with their own N-MCM models (Section 4's node-based
// cost equations applied to the shard's F̂_s and node statistics), then:
//
//  - skips shards proven empty. Every member O of shard s satisfies
//      d(Q, O) >= max(dp_s - rmax, rmin - dp_s, 0)          (annulus)
//    over the shard's exact annulus [rmin, rmax]. A clustered shard holds
//    only objects no farther from its pivot (its seed) than from any other
//    seed, so d(O, p_s) <= d(O, p_j) and the triangle inequality gives the
//    generalised-hyperplane bound of GNAT / GH-trees
//      d(Q, O) >= (dp_s - min_j dp_j) / 2                   (Voronoi)
//    which the router maxes with the annulus bound (hash shards keep the
//    annulus bound alone). A range shard whose bound exceeds the radius is
//    never dispatched, a k-NN shard whose bound exceeds the running k-th
//    distance is never searched, and the skip reason names the proof;
//  - orders the dispatched shards nearest-first by (lower bound, pivot
//    distance, shard id) — best-first search over shards. A k-NN scatter
//    runs its home shard first, which yields a tight k-th distance r_k;
//    every later shard is then either proven useless or searched with
//    range(Q, r_k) only. Predicted cost cannot order shards: under
//    Assumption 1 it does not depend on the query, so it would only ever
//    be one fixed shard order;
//  - prices plans from a memo keyed by query kind and parameter (k, or the
//    radius's bit pattern): a shard's N-MCM cost does not depend on the
//    query, so only pivot distances and bounds are computed per query. A
//    k-NN plan is priced as the plan that runs: the home shard's NN(Q, k)
//    plus range(Q, r̂) on each later shard whose bound is <= r̂, with r̂
//    the home shard's expected k-th NN distance (Eq. 11);
//  - merges through the engine collectors (distance-then-oid order), so
//    the answer list is bit-identical to the unsharded index at any
//    shard count; with one shard the query passes straight through and
//    even the counters match the unsharded tree.
//
// ShardRouter satisfies the MetricIndex concept (const, concurrently
// callable), so engine::BatchExecutor<ShardRouter<...>> parallelizes
// query batches over it unchanged; the AdmissionController then throttles
// aggregate predicted node reads and per-shard concurrency under load.
// Per-query work is attributed through the obs registry counters
// mcm.shard.dispatched / mcm.shard.skipped / mcm.shard.nodes.

#ifndef MCM_SHARD_ROUTER_H_
#define MCM_SHARD_ROUTER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mcm/common/env.h"
#include "mcm/common/mutex.h"
#include "mcm/common/query_stats.h"
#include "mcm/common/thread_annotations.h"
#include "mcm/cost/nmcm.h"
#include "mcm/engine/search_core.h"
#include "mcm/obs/metrics.h"
#include "mcm/shard/admission.h"
#include "mcm/shard/explain.h"
#include "mcm/shard/sharded_index.h"

namespace mcm {
namespace shard {

/// Resolves the MCM_SHARD_INFLIGHT environment knob: the router-wide
/// budget of predicted node reads allowed in flight (0 = no admission
/// control, the default).
inline double InflightBudgetFromEnv() {
  return GetEnvDouble("MCM_SHARD_INFLIGHT", 0.0);
}

/// Router configuration.
struct RouterOptions {
  /// Cost-model routing: skip provably empty shards and dispatch the rest
  /// nearest-first. Off = naive scatter (every non-empty shard, in shard
  /// order, no pivot distances) — the bench baseline.
  bool cost_routing = true;
  /// Predicted-node admission budget; < 0 resolves MCM_SHARD_INFLIGHT,
  /// 0 disables admission control.
  double inflight_budget = -1.0;
  /// Max concurrent queries per shard (0 = unlimited).
  size_t per_shard_inflight = 0;
};

/// One shard's routing decision for one query.
struct ShardDecision {
  size_t shard = 0;
  bool dispatched = true;
  const char* reason = "dispatched";
  /// d(Q, pivot_s); 0 when none was computed (naive scatter, empty shard).
  double pivot_distance = 0.0;
  /// Proven lower bound on d(Q, member) over the shard: the annulus bound,
  /// maxed with the Voronoi bound for clustered shards.
  double lower_bound = 0.0;
  /// The plan's N-MCM price of this shard (see PlanRange / PlanKnn).
  double predicted_nodes = 0.0;
  double predicted_dists = 0.0;
};

/// The routing plan for one query: per-shard decisions (by shard id) and
/// the dispatch order (nearest first).
struct RoutePlan {
  std::vector<ShardDecision> decisions;
  std::vector<size_t> order;  ///< Dispatched shard ids, execution order.
  double predicted_nodes = 0.0;  ///< Sum over dispatched shards.
  size_t skipped = 0;
};

/// Scatter-gather search over a ShardedMTree. Concurrently callable;
/// satisfies engine::MetricIndex. Its only mutable state is the admission
/// controller and the memo of per-shard plan prices, which changes no
/// plan.
template <typename Traits>
class ShardRouter {
 public:
  using Object = typename Traits::Object;
  using Result = SearchResult<Object>;

  explicit ShardRouter(const ShardedMTree<Traits>& index,
                       RouterOptions options = {})
      : index_(index),
        options_(options),
        admission_(options.inflight_budget < 0.0 ? InflightBudgetFromEnv()
                                                 : options.inflight_budget,
                   options.per_shard_inflight, index.num_shards()),
        dispatched_counter_(
            MetricsRegistry::Global().GetCounter("mcm.shard.dispatched")),
        skipped_counter_(
            MetricsRegistry::Global().GetCounter("mcm.shard.skipped")),
        nodes_counter_(
            MetricsRegistry::Global().GetCounter("mcm.shard.nodes")) {}

  /// range(Q, r): bit-identical to the unsharded index's answer list.
  std::vector<Result> RangeSearch(const Object& query, double radius,
                                  QueryStats* stats = nullptr) const {
    return RunRange(query, radius, stats, nullptr);
  }

  /// NN(Q, k): bit-identical to the unsharded index's answer list.
  std::vector<Result> KnnSearch(const Object& query, size_t k,
                                QueryStats* stats = nullptr) const {
    return RunKnn(query, k, stats, nullptr);
  }

  size_t size() const { return index_.size(); }
  size_t num_shards() const { return index_.num_shards(); }
  const ShardedMTree<Traits>& index() const { return index_; }
  const RouterOptions& options() const { return options_; }

  /// Queries the admission controller made wait at least once.
  uint64_t queued_queries() const { return admission_.queued_queries(); }

  /// The routing plan for range(Q, r): every non-empty shard priced at
  /// RangeCosts(r) (memoized per radius), shards whose bound exceeds r
  /// skipped. Pivot distances are genuine metric evaluations and are
  /// charged to `stats` (the same convention the trees use for their
  /// routing distances).
  RoutePlan PlanRange(const Object& query, double radius,
                      QueryStats* stats = nullptr) const {
    RoutePlan plan = MakeDecisions(query, stats);
    const std::shared_ptr<const ShardPrices> prices =
        Prices(PlanKind::kRange, std::bit_cast<uint64_t>(radius));
    for (ShardDecision& d : plan.decisions) {
      if (!d.dispatched) continue;  // Empty shard.
      d.predicted_nodes = (*prices)[d.shard].cost.nodes;
      d.predicted_dists = (*prices)[d.shard].cost.distances;
      if (options_.cost_routing && d.lower_bound > radius) {
        d.dispatched = false;
        d.reason = SkipReason(d, radius, "skip:annulus");
        continue;
      }
      plan.predicted_nodes += d.predicted_nodes;
    }
    OrderPlan(&plan);
    return plan;
  }

  /// The routing plan for NN(Q, k). No shard can be skipped up front (r_k
  /// is unknown); the execution-time bound check does the skipping. The
  /// plan is priced as it will run: the home shard (first in order) at
  /// NnCosts(k), each later shard whose bound is <= r̂ — the home shard's
  /// expected k-th NN distance — at RangeCosts(r̂), the rest at zero (they
  /// are expected to be skipped). k is clamped to each shard's size; both
  /// price vectors come from the memo.
  RoutePlan PlanKnn(const Object& query, size_t k,
                    QueryStats* stats = nullptr) const {
    RoutePlan plan = MakeDecisions(query, stats);
    OrderPlan(&plan);
    if (plan.order.empty()) return plan;
    const std::shared_ptr<const ShardPrices> nn = Prices(PlanKind::kKnn, k);
    const ShardPrice& home = (*nn)[plan.order.front()];
    const std::shared_ptr<const ShardPrices> range =
        Prices(PlanKind::kRange, std::bit_cast<uint64_t>(home.nn_distance));
    for (const size_t s : plan.order) {
      ShardDecision& d = plan.decisions[s];
      const bool is_home = s == plan.order.front();
      if (!is_home && d.lower_bound > home.nn_distance) continue;
      const PredictedCost& cost = is_home ? home.cost : (*range)[s].cost;
      d.predicted_nodes = cost.nodes;
      d.predicted_dists = cost.distances;
      plan.predicted_nodes += cost.nodes;
    }
    return plan;
  }

  /// Runs range(Q, r) and returns the per-shard predicted-vs-actual
  /// report (EXPLAIN surface).
  ShardExplainReport ExplainRange(const Object& query, double radius) const {
    ShardExplainReport report;
    report.kind = "range";
    report.radius = radius;
    QueryStats stats;
    const auto results = RunRange(query, radius, &stats, &report);
    report.results = results.size();
    return report;
  }

  /// Runs NN(Q, k) and returns the per-shard report.
  ShardExplainReport ExplainKnn(const Object& query, size_t k) const {
    ShardExplainReport report;
    report.kind = "knn";
    report.k = k;
    QueryStats stats;
    const auto results = RunKnn(query, k, &stats, &report);
    report.results = results.size();
    return report;
  }

 private:
  /// What a memoized price vector is for: range(Q, r), keyed by the bit
  /// pattern of r, or NN(Q, k), keyed by k.
  enum class PlanKind : uint8_t { kRange, kKnn };

  /// One shard's N-MCM price for one plan parameter; for k-NN also the
  /// shard's expected k-th NN distance. Zero for an empty or model-less
  /// shard.
  struct ShardPrice {
    PredictedCost cost;
    double nn_distance = 0.0;
  };
  using ShardPrices = std::vector<ShardPrice>;  ///< Indexed by shard id.

  /// Distinct (kind, parameter) keys whose prices the router keeps. A
  /// workload uses a handful (a k-NN plan adds one radius key per home
  /// shard); past the bound a new key is priced on every query, uncached.
  static constexpr size_t kMaxCachedPrices = 64;

  /// Every shard's price for `kind` at `param`: RangeCosts(r) for range,
  /// NnCosts(k) and ExpectedNnDistance(k) for k-NN with k clamped to the
  /// shard size. Under Assumption 1 none of it depends on Q, so it is
  /// computed on the first query with this key — outside the lock, no
  /// model code runs under it — and the first writer's entry is kept and
  /// shared.
  std::shared_ptr<const ShardPrices> Prices(PlanKind kind,
                                            uint64_t param) const
      MCM_EXCLUDES(prices_mu_) {
    const std::pair<PlanKind, uint64_t> key(kind, param);
    {
      MutexLock lock(&prices_mu_);
      const auto it = prices_.find(key);
      if (it != prices_.end()) return it->second;
    }
    auto prices = std::make_shared<ShardPrices>(index_.num_shards());
    for (size_t s = 0; s < prices->size(); ++s) {
      const std::optional<NodeBasedCostModel>& model =
          index_.sidecar(s).model;
      if (!model.has_value()) continue;
      ShardPrice& price = (*prices)[s];
      if (kind == PlanKind::kRange) {
        price.cost = model->RangeCosts(std::bit_cast<double>(param));
        continue;
      }
      const size_t shard_k = static_cast<size_t>(
          std::min<uint64_t>(param, index_.tree(s).size()));
      if (shard_k == 0) continue;
      price.cost = model->NnCosts(shard_k);
      price.nn_distance = model->nn_model().ExpectedNnDistance(shard_k);
    }
    MutexLock lock(&prices_mu_);
    if (prices_.size() >= kMaxCachedPrices) return prices;
    return prices_.emplace(key, std::move(prices)).first->second;
  }

  /// Shared first phase of both plans: per-shard pivot distance (charged
  /// to `stats`) and lower bound. Empty shards come back undispatched;
  /// with cost routing off no pivot distance is spent and every non-empty
  /// shard is dispatched with bound 0.
  RoutePlan MakeDecisions(const Object& query, QueryStats* stats) const {
    RoutePlan plan;
    plan.decisions.resize(index_.num_shards());
    double nearest = std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < index_.num_shards(); ++s) {
      ShardDecision& d = plan.decisions[s];
      d.shard = s;
      if (index_.tree(s).size() == 0) {
        d.dispatched = false;
        d.reason = "skip:empty";
        d.lower_bound = std::numeric_limits<double>::infinity();
        continue;
      }
      if (!options_.cost_routing) continue;  // Naive scatter: bound 0.
      d.pivot_distance = index_.metric()(query, index_.sidecar(s).pivot);
      if (stats != nullptr) ++stats->distance_computations;
      d.lower_bound = AnnulusBound(d);
      nearest = std::min(nearest, d.pivot_distance);
    }
    if (options_.cost_routing &&
        index_.assignment() == Assignment::kClustered) {
      // Voronoi bound: each member O sits with its nearest seed, so for
      // every seed p_j, d(Q, p_s) <= d(Q, O) + d(O, p_s)
      //                          <= d(Q, O) + d(O, p_j) <= 2 d(Q, O) + dp_j.
      for (ShardDecision& d : plan.decisions) {
        if (!d.dispatched) continue;
        d.lower_bound =
            std::max(d.lower_bound, (d.pivot_distance - nearest) / 2.0);
      }
    }
    return plan;
  }

  /// The annulus bound of `d`'s shard alone.
  double AnnulusBound(const ShardDecision& d) const {
    const ShardSidecar<Traits>& sidecar = index_.sidecar(d.shard);
    return std::max({d.pivot_distance - sidecar.rmax,
                     sidecar.rmin - d.pivot_distance, 0.0});
  }

  /// The proof behind skipping `d` at radius `r` (d.lower_bound > r):
  /// `annulus_reason` when the annulus bound alone exceeds r, otherwise
  /// the Voronoi bound did it.
  const char* SkipReason(const ShardDecision& d, double r,
                         const char* annulus_reason) const {
    return AnnulusBound(d) > r ? annulus_reason : "skip:voronoi";
  }

  /// Lists the dispatched shards nearest-first — by (lower bound, pivot
  /// distance, shard id); naive plans have zero keys and keep shard
  /// order — and counts the skipped ones.
  static void OrderPlan(RoutePlan* plan) {
    for (const ShardDecision& d : plan->decisions) {
      if (d.dispatched) {
        plan->order.push_back(d.shard);
      } else {
        ++plan->skipped;
      }
    }
    const std::vector<ShardDecision>& ds = plan->decisions;
    std::sort(plan->order.begin(), plan->order.end(),
              [&ds](size_t a, size_t b) {
                return std::tie(ds[a].lower_bound, ds[a].pivot_distance, a) <
                       std::tie(ds[b].lower_bound, ds[b].pivot_distance, b);
              });
  }

  /// Runs one shard search, folds its counters into `stats` (preserving
  /// any attached trace / span log for the shard's events), and reports
  /// the shard's own counters through `row`.
  template <typename SearchFn>
  std::vector<Result> SearchShard(size_t s, QueryStats* stats,
                                  const SearchFn& search,
                                  ShardExplainRow* row) const {
    ShardTicket ticket(&admission_, s);
    QueryStats local;
    if (stats != nullptr) {
      local.trace = stats->trace;
      local.spans = stats->spans;
    }
    auto results = search(index_.tree(s), &local);
    local.trace = nullptr;
    local.spans = nullptr;
    if (stats != nullptr) *stats += local;
    if (row != nullptr) {
      row->actual_nodes = local.nodes_accessed;
      row->actual_dists = local.distance_computations;
      row->results = results.size();
    }
    if (ObsEnabled()) nodes_counter_.Increment(local.nodes_accessed);
    return results;
  }

  void FillReportRow(const ShardDecision& d, ShardExplainReport* report,
                     ShardExplainRow** row_out) const {
    if (report == nullptr) {
      *row_out = nullptr;
      return;
    }
    report->rows.emplace_back();
    ShardExplainRow& row = report->rows.back();
    row.shard = d.shard;
    row.objects = index_.tree(d.shard).size();
    row.dispatched = d.dispatched;
    row.reason = d.reason;
    row.pivot_distance = d.pivot_distance;
    row.lower_bound = d.lower_bound;
    row.predicted_nodes = d.predicted_nodes;
    row.predicted_dists = d.predicted_dists;
    *row_out = &row;
  }

  void FinishReport(const RoutePlan& plan, const QueryStats& stats,
                    ShardExplainReport* report) const {
    if (report == nullptr) return;
    // Skipped shards trail the dispatched rows in shard order.
    for (const ShardDecision& d : plan.decisions) {
      if (d.dispatched) continue;
      ShardExplainRow* row = nullptr;
      FillReportRow(d, report, &row);
    }
    report->num_shards = index_.num_shards();
    report->predicted_nodes = plan.predicted_nodes;
    report->actual_nodes = stats.nodes_accessed;
    report->actual_dists = stats.distance_computations;
    for (const ShardExplainRow& row : report->rows) {
      if (row.dispatched) {
        ++report->dispatched;
      } else {
        ++report->skipped;
      }
    }
  }

  std::vector<Result> RunRange(const Object& query, double radius,
                               QueryStats* stats,
                               ShardExplainReport* report) const {
    if (stats != nullptr) ResetCounters(stats);
    if (index_.num_shards() == 1 && report == nullptr) {
      // Degenerate fast path: the unsharded tree, counters and all.
      if (ObsEnabled()) dispatched_counter_.Increment();
      return index_.tree(0).RangeSearch(query, radius, stats);
    }
    QueryStats local_stats;
    QueryStats* st = stats != nullptr ? stats : &local_stats;
    const RoutePlan plan = PlanRange(query, radius, st);
    QueryTicket ticket(&admission_, plan.predicted_nodes);
    std::vector<Result> merged;
    for (const size_t s : plan.order) {
      ShardExplainRow* row = nullptr;
      FillReportRow(plan.decisions[s], report, &row);
      if (row != nullptr) row->radius_sent = radius;
      auto part = SearchShard(
          s, st,
          [&](const MTree<Traits>& tree, QueryStats* shard_stats) {
            return tree.RangeSearch(query, radius, shard_stats);
          },
          row);
      merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    std::sort(merged.begin(), merged.end(), engine::ResultOrder<Object>);
    if (ObsEnabled()) {
      dispatched_counter_.Increment(plan.order.size());
      skipped_counter_.Increment(plan.skipped);
    }
    FinishReport(plan, *st, report);
    return merged;
  }

  std::vector<Result> RunKnn(const Object& query, size_t k,
                             QueryStats* stats,
                             ShardExplainReport* report) const {
    if (stats != nullptr) ResetCounters(stats);
    if (index_.num_shards() == 1 && report == nullptr) {
      if (ObsEnabled()) dispatched_counter_.Increment();
      return index_.tree(0).KnnSearch(query, k, stats);
    }
    QueryStats local_stats;
    QueryStats* st = stats != nullptr ? stats : &local_stats;
    RoutePlan plan = PlanKnn(query, k, st);
    QueryTicket ticket(&admission_, plan.predicted_nodes);
    engine::KnnCollector<Object> collector(k);
    size_t executed = 0;
    for (const size_t s : plan.order) {
      const double bound = collector.Bound();
      ShardDecision& d = plan.decisions[s];
      if (d.lower_bound > bound) {
        // The running k-th distance now proves this shard useless; the
        // plan's decision is amended so reports and counters agree. Bounds
        // ascend along the order and r_k only shrinks, so every later
        // shard is skipped too.
        d.dispatched = false;
        d.reason = SkipReason(d, bound, "skip:bound");
        continue;
      }
      ShardExplainRow* row = nullptr;
      FillReportRow(d, report, &row);
      const bool bounded =
          bound != std::numeric_limits<double>::infinity();
      if (row != nullptr) row->radius_sent = bounded ? bound : -1.0;
      auto part = SearchShard(
          s, st,
          [&](const MTree<Traits>& tree, QueryStats* shard_stats) {
            // First shard(s): full k-NN. Once k candidates exist, later
            // shards only need range(Q, r_k) — every answer that could
            // still enter the top-k (ties included) lies within r_k.
            return bounded ? tree.RangeSearch(query, bound, shard_stats)
                           : tree.KnnSearch(query, k, shard_stats);
          },
          row);
      ++executed;
      for (const Result& r : part) {
        collector.Offer(r.oid, r.object, r.distance);
      }
    }
    if (ObsEnabled()) {
      dispatched_counter_.Increment(executed);
      skipped_counter_.Increment(index_.num_shards() - executed);
    }
    // Recompute plan totals after execution-time skips so the report's
    // skipped/dispatched split reflects what actually ran.
    plan.skipped = index_.num_shards() - executed;
    FinishReport(plan, *st, report);
    return collector.Take();
  }

  const ShardedMTree<Traits>& index_;
  RouterOptions options_;
  mutable AdmissionController admission_;
  Counter& dispatched_counter_;
  Counter& skipped_counter_;
  Counter& nodes_counter_;
  mutable Mutex prices_mu_;
  mutable std::map<std::pair<PlanKind, uint64_t>,
                   std::shared_ptr<const ShardPrices>>
      prices_ MCM_GUARDED_BY(prices_mu_);
};

}  // namespace shard
}  // namespace mcm

#endif  // MCM_SHARD_ROUTER_H_
