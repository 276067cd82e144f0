// EXPLAIN driver: runs one range or k-NN query on an M-tree with full
// instrumentation (trace, phase spans, wall clock) and pairs the measured
// execution with the N-MCM / L-MCM predictions and the optimizer's
// access-path decision, producing an obs/explain.h report.
//
// The tree parameter is duck-typed (CollectStats / RangeSearch / KnnSearch
// / size / height / options / store) rather than constrained to MTree so
// this header introduces no cost/ -> mtree/ dependency; any index exposing
// the same statistics surface can be explained.
//
// The query always executes on the index, even when the optimizer picks
// the sequential scan — EXPLAIN's job is to show how the index execution
// compares to its prediction; the plan section reports what the optimizer
// would have chosen.

#ifndef MCM_COST_EXPLAIN_H_
#define MCM_COST_EXPLAIN_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mcm/common/stopwatch.h"
#include "mcm/cost/access_path.h"
#include "mcm/cost/lmcm.h"
#include "mcm/cost/nmcm.h"
#include "mcm/cost/witness_model.h"
#include "mcm/distribution/histogram.h"
#include "mcm/obs/explain.h"
#include "mcm/obs/phase.h"
#include "mcm/obs/telemetry.h"
#include "mcm/obs/trace.h"

namespace mcm {

/// Knobs of the explain driver.
struct ExplainOptions {
  /// Device parameters for the access-path decision (paper defaults).
  DiskCostParameters disk;
  /// Sequential-scan alternative. When num_objects == 0 it is derived from
  /// the tree: n objects, data_bytes = num_nodes * node_size (the paged
  /// file the index occupies — a fair streaming alternative).
  SequentialScanProfile seq_profile;
  size_t trace_capacity = QueryTrace::kDefaultCapacity;
  size_t span_capacity = PhaseSpanLog::kDefaultCapacity;
  size_t nn_grid_refinement = 8;
  /// Query id used for histogram exemplars and the Chrome-trace lane args.
  uint64_t query_id = 0;
};

namespace explain_internal {

inline void FillActuals(const QueryTrace& trace, ExplainReport* report) {
  const auto& levels = trace.levels();
  report->level_actuals.resize(
      std::max<size_t>(levels.size(), report->height));
  for (size_t l = 0; l < levels.size(); ++l) {
    auto& a = report->level_actuals[l];
    a.node_visits = levels[l].node_visits;
    a.distances = levels[l].distances;
    a.entries_scanned = levels[l].entries_scanned;
    a.entries_pruned = levels[l].entries_pruned;
    a.subtree_prunes = levels[l].subtree_prunes;
    a.witness_avoided = levels[l].witness_avoided;
  }
  report->prunes_by_reason = trace.prunes_by_reason();
  report->trace_dropped = trace.dropped();
}

template <typename Tree>
void FillShape(const Tree& tree, double d_plus, ExplainReport* report) {
  report->num_objects = tree.size();
  report->height = tree.height();
  report->num_nodes = tree.store().NumNodes();
  report->node_size_bytes = tree.options().node_size_bytes;
  report->d_plus = d_plus;
}

inline void FillPlan(const AccessPathDecision& decision,
                     ExplainReport* report) {
  report->access_path = decision.choice == AccessPath::kIndexScan
                            ? "index-scan"
                            : "sequential-scan";
  report->index_ms = decision.index_ms;
  report->sequential_ms = decision.sequential_ms;
}

template <typename Tree>
SequentialScanProfile ResolveProfile(const Tree& tree,
                                     const ExplainOptions& options) {
  SequentialScanProfile profile = options.seq_profile;
  if (profile.num_objects == 0) {
    profile.num_objects = tree.size();
    profile.data_bytes =
        tree.store().NumNodes() * tree.options().node_size_bytes;
  }
  return profile;
}

/// Runs `run` instrumented and merges the separately measured planning
/// time (ResetCounters inside the search entry point would wipe a kPlan
/// span recorded up front, so the driver times planning outside the query
/// and folds it in here).
template <typename RunFn>
void Execute(const RunFn& run, uint64_t plan_ns,
             const ExplainOptions& options, ExplainReport* report) {
  QueryTrace trace(options.trace_capacity);
  PhaseSpanLog spans(options.span_capacity);
  QueryStats stats;
  stats.trace = &trace;
  stats.spans = &spans;
  Stopwatch watch;
  report->num_results = run(&stats);
  report->latency_us = static_cast<double>(watch.ElapsedNanos()) / 1e3;
  stats.trace = nullptr;
  stats.spans = nullptr;
  stats.phase_ns[static_cast<size_t>(QueryPhase::kPlan)] += plan_ns;
  report->stats = stats;
  FillActuals(trace, report);
  ObservePhaseTimes(stats, options.query_id);
  TelemetrySink::Global().Submit(spans, options.query_id);
}

/// Trees that expose the engine's witness cascade state (MTree). The
/// witness-corrected prediction is only emitted for them, and only when
/// the cascade is installed and the capacity is positive.
template <typename Tree>
concept WitnessReportingTree = requires(const Tree& tree) {
  { tree.witness_capacity() } -> std::convertible_to<int>;
  { tree.cascade_installed() } -> std::convertible_to<bool>;
};

/// Appends the "nmcm.witness" prediction: N-MCM's per-level distance
/// expectations scaled by the witness-hit-rate correction at pruning bound
/// `bound` (the query radius, or the expected k-NN radius). Node reads are
/// unchanged — witnesses avoid metric evaluations, not node accesses.
template <typename Tree>
void AddWitnessPrediction(const Tree& tree, const DistanceHistogram& histogram,
                          const NodeBasedCostModel& nmcm, double bound,
                          const std::vector<double>& level_nodes,
                          const std::vector<double>& level_distances,
                          double nodes, ExplainReport* report) {
  if constexpr (WitnessReportingTree<Tree>) {
    if (!tree.cascade_installed() || tree.witness_capacity() <= 0) return;
    const WitnessCostModel witness_model(histogram, tree.witness_capacity());
    // Entries of a level-l internal node are pruned at bound + r(entry)
    // (their children live at level l+1); leaf entries at the bound
    // itself. The per-level aggregates carry the average child radius.
    const MTreeStatsView& stats = nmcm.stats();
    std::vector<double> level_bounds(level_distances.size(), bound);
    for (const LevelStatRecord& rec : stats.levels) {
      if (rec.level >= 2 && rec.level - 2 < level_bounds.size()) {
        level_bounds[rec.level - 2] = bound + rec.avg_covering_radius;
      }
    }
    std::vector<double> corrected =
        witness_model.CorrectLevelDistances(level_distances, level_bounds);
    double total = 0.0;
    for (double v : corrected) total += v;
    report->predictions.push_back(
        {"nmcm.witness", nodes, total, level_nodes, std::move(corrected)});
  } else {
    (void)tree;
    (void)histogram;
    (void)nmcm;
  }
}

}  // namespace explain_internal

/// Explains range(Q, radius) on `tree`. `histogram` is the sampled
/// distance distribution F̂ⁿ and `d_plus` the BRM bound (the root's
/// conventional covering radius, footnote 1).
template <typename Tree>
ExplainReport ExplainRange(const Tree& tree,
                           const DistanceHistogram& histogram, double d_plus,
                           const typename Tree::Object& query, double radius,
                           const ExplainOptions& options = {}) {
  ExplainReport report;
  report.kind = "range";
  report.radius = radius;
  explain_internal::FillShape(tree, d_plus, &report);

  Stopwatch plan_watch;
  NodeBasedCostModel nmcm(histogram, tree.CollectStats(d_plus),
                          options.nn_grid_refinement);
  LevelBasedCostModel lmcm(histogram, nmcm.stats(),
                           options.nn_grid_refinement);
  const PredictedCost range_cost = nmcm.RangeCosts(radius);
  report.predictions.push_back(
      {"nmcm", range_cost.nodes, range_cost.distances,
       nmcm.RangeNodesPerLevel(radius), nmcm.RangeDistancesPerLevel(radius)});
  report.predictions.push_back(
      {"lmcm", lmcm.RangeNodes(radius), lmcm.RangeDistances(radius),
       lmcm.RangeNodesPerLevel(radius), lmcm.RangeDistancesPerLevel(radius)});
  explain_internal::AddWitnessPrediction(
      tree, histogram, nmcm, radius, report.predictions[0].level_nodes,
      report.predictions[0].level_distances, report.predictions[0].nodes,
      &report);
  const AccessPathDecision decision = ChooseAccessPath(
      options.disk, report.predictions[0].distances,
      report.predictions[0].nodes, report.node_size_bytes,
      explain_internal::ResolveProfile(tree, options));
  const uint64_t plan_ns = plan_watch.ElapsedNanos();
  explain_internal::FillPlan(decision, &report);

  explain_internal::Execute(
      [&](QueryStats* st) {
        return tree.RangeSearch(query, radius, st).size();
      },
      plan_ns, options, &report);
  return report;
}

/// Explains NN(Q, k) on `tree`.
template <typename Tree>
ExplainReport ExplainKnn(const Tree& tree, const DistanceHistogram& histogram,
                         double d_plus, const typename Tree::Object& query,
                         size_t k, const ExplainOptions& options = {}) {
  ExplainReport report;
  report.kind = "knn";
  report.k = k;
  explain_internal::FillShape(tree, d_plus, &report);

  Stopwatch plan_watch;
  NodeBasedCostModel nmcm(histogram, tree.CollectStats(d_plus),
                          options.nn_grid_refinement);
  LevelBasedCostModel lmcm(histogram, nmcm.stats(),
                           options.nn_grid_refinement);
  const PredictedCost nn_cost = nmcm.NnCosts(k);
  report.predictions.push_back({"nmcm", nn_cost.nodes, nn_cost.distances,
                                nmcm.NnNodesPerLevel(k),
                                nmcm.NnDistancesPerLevel(k)});
  report.predictions.push_back({"lmcm", lmcm.NnNodes(k), lmcm.NnDistances(k),
                                lmcm.NnNodesPerLevel(k),
                                lmcm.NnDistancesPerLevel(k)});
  explain_internal::AddWitnessPrediction(
      tree, histogram, nmcm, nmcm.nn_model().ExpectedNnDistance(k),
      report.predictions[0].level_nodes,
      report.predictions[0].level_distances, report.predictions[0].nodes,
      &report);
  const AccessPathDecision decision = ChooseAccessPath(
      options.disk, report.predictions[0].distances,
      report.predictions[0].nodes, report.node_size_bytes,
      explain_internal::ResolveProfile(tree, options));
  const uint64_t plan_ns = plan_watch.ElapsedNanos();
  explain_internal::FillPlan(decision, &report);

  explain_internal::Execute(
      [&](QueryStats* st) { return tree.KnnSearch(query, k, st).size(); },
      plan_ns, options, &report);
  return report;
}

}  // namespace mcm

#endif  // MCM_COST_EXPLAIN_H_
