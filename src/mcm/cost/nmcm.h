// N-MCM — the Node-based Metric Cost Model (Section 3.1), the paper's
// primary contribution. Predicts I/O (node reads) and CPU (distance
// computations) costs of range and k-NN queries on an M-tree from
//   * the sampled distance distribution F̂ⁿ, and
//   * per-node statistics (covering radius r(N_i), entry count e(N_i)).

#ifndef MCM_COST_NMCM_H_
#define MCM_COST_NMCM_H_

#include <cstddef>
#include <vector>

#include "mcm/cost/nn_distance.h"
#include "mcm/cost/tree_stats.h"
#include "mcm/distribution/histogram.h"

namespace mcm {

/// A predicted query cost in the paper's two units.
struct PredictedCost {
  double nodes = 0.0;      ///< Node reads (I/O).
  double distances = 0.0;  ///< Distance computations (CPU).
};

class NodeBasedCostModel {
 public:
  /// Both arguments are copied into the model. `stats` must carry the
  /// footnote-1 convention (root covering radius = d⁺), as produced by
  /// MTree::CollectStats(d_plus).
  NodeBasedCostModel(const DistanceHistogram& histogram, MTreeStatsView stats,
                     size_t nn_grid_refinement = 8);

  /// Eqs. 6 and 7 in one pass over the nodes, one F evaluation per node.
  /// Both terms are bit-identical to RangeNodes() / RangeDistances().
  PredictedCost RangeCosts(double query_radius) const;

  /// Eq. 6: nodes(range(Q, r_Q)) = Σ_i F(r(N_i) + r_Q).
  double RangeNodes(double query_radius) const;

  /// Eq. 6 split by tree level: element l-1 is the expected node reads at
  /// level l (root = 1). Sums to RangeNodes(). Feeds the observability
  /// layer's per-level residual tracking (obs/residual.h).
  std::vector<double> RangeNodesPerLevel(double query_radius) const;

  /// Eq. 7: dists(range(Q, r_Q)) = Σ_i e(N_i) · F(r(N_i) + r_Q).
  double RangeDistances(double query_radius) const;

  /// Eq. 7 split by tree level: element l-1 is the expected distance
  /// computations over entries of level-l nodes. Sums to RangeDistances().
  /// Feeds the EXPLAIN report's per-level predicted-vs-actual table.
  std::vector<double> RangeDistancesPerLevel(double query_radius) const;

  /// Eq. 8: objs(range(Q, r_Q)) = n · F(r_Q).
  double RangeObjects(double query_radius) const;

  /// Complex-query extension (paper future-work #3, EDBT'98 [11]):
  /// expected node reads of a multi-predicate range query with radii
  /// `radii`, combined conjunctively (AND) or disjunctively (OR). Assumes
  /// the per-predicate node distances are independent, so
  ///   Pr{access | AND} = Π_j F(r(N)+r_j),
  ///   Pr{access | OR}  = 1 − Π_j (1 − F(r(N)+r_j)).
  double ComplexRangeNodes(const std::vector<double>& radii,
                           bool conjunctive) const;

  /// Expected distance computations of a complex range query: every entry
  /// of an accessed node is compared against all |radii| predicates.
  double ComplexRangeDistances(const std::vector<double>& radii,
                               bool conjunctive) const;

  /// Expected result cardinality of a complex range query:
  /// n·Π F(r_j) (AND) or n·(1 − Π(1 − F(r_j))) (OR).
  double ComplexRangeObjects(const std::vector<double>& radii,
                             bool conjunctive) const;

  /// Both k-NN cost terms from one integration pass (one RangeCosts() per
  /// grid cell). Bit-identical to NnNodes() / NnDistances(). Under
  /// Assumption 1 the result depends only on F̂ⁿ, the node statistics, n
  /// and k — not on the query — so callers may memoize it per k.
  PredictedCost NnCosts(size_t k) const;

  /// Expected node reads of NN(Q, k): ∫ nodes(range(Q,r)) p_{Q,k}(r) dr.
  double NnNodes(size_t k) const;

  /// Expected distance computations of NN(Q, k).
  double NnDistances(size_t k) const;

  /// Per-level versions of NnNodes / NnDistances: the range-query
  /// per-level expectations integrated against the k-NN radius density.
  std::vector<double> NnNodesPerLevel(size_t k) const;
  std::vector<double> NnDistancesPerLevel(size_t k) const;

  const NnDistanceModel& nn_model() const { return nn_model_; }
  const MTreeStatsView& stats() const { return stats_; }

 private:
  DistanceHistogram histogram_;
  MTreeStatsView stats_;
  NnDistanceModel nn_model_;
};

}  // namespace mcm

#endif  // MCM_COST_NMCM_H_
