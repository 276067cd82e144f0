// Per-shard predicted-vs-actual EXPLAIN report: one row per shard with
// the routing decision (dispatched / skipped and which proof skipped it,
// the pivot distance and proven lower bound the router ordered by), the
// plan's N-MCM predictions, and the measured node / distance counters the
// shard search actually spent. Rendered as a text
// table for the CLI and as a JSON object mcm_explain embeds under the
// "shards" key.

#ifndef MCM_SHARD_EXPLAIN_H_
#define MCM_SHARD_EXPLAIN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mcm {
namespace shard {

/// One shard's routing decision and measured execution.
struct ShardExplainRow {
  size_t shard = 0;
  size_t objects = 0;           ///< Objects stored in the shard.
  bool dispatched = false;
  /// "dispatched", "skip:empty", "skip:annulus" / "skip:voronoi" (range:
  /// the proof that fired), "skip:bound" / "skip:voronoi" (k-NN: the
  /// running k-th distance beat the annulus / Voronoi bound).
  std::string reason;
  double pivot_distance = 0.0;  ///< d(query, shard pivot); 0 = not computed.
  double lower_bound = 0.0;     ///< Proven min distance query -> shard.
  double predicted_nodes = 0.0;
  double predicted_dists = 0.0;
  uint64_t actual_nodes = 0;
  uint64_t actual_dists = 0;
  size_t results = 0;
  /// Radius the shard was actually searched with: the query radius for
  /// range, the running k-NN bound for later shards of a k-NN scatter
  /// (negative = full k-NN search, no bound yet).
  double radius_sent = -1.0;
};

/// The whole scatter: per-shard rows in dispatch order (skipped shards
/// trail in shard order), plus totals.
struct ShardExplainReport {
  std::string kind;          ///< "range" or "knn".
  double radius = 0.0;       ///< Range only.
  size_t k = 0;              ///< k-NN only.
  size_t num_shards = 0;
  size_t dispatched = 0;
  size_t skipped = 0;
  double predicted_nodes = 0.0;  ///< Sum over dispatched shards.
  uint64_t actual_nodes = 0;
  uint64_t actual_dists = 0;
  size_t results = 0;
  std::vector<ShardExplainRow> rows;
};

/// Formats the report as an aligned text table with a totals line.
std::string RenderShardExplainText(const ShardExplainReport& report);

/// Formats the report as one JSON object (nested "rows" array).
std::string RenderShardExplainJson(const ShardExplainReport& report);

}  // namespace shard
}  // namespace mcm

#endif  // MCM_SHARD_EXPLAIN_H_
