#include "mcm/cost/nmcm.h"

namespace mcm {

NodeBasedCostModel::NodeBasedCostModel(const DistanceHistogram& histogram,
                                       MTreeStatsView stats,
                                       size_t nn_grid_refinement)
    : histogram_(histogram),
      stats_(std::move(stats)),
      nn_model_(histogram_, stats_.num_objects, nn_grid_refinement) {}

PredictedCost NodeBasedCostModel::RangeCosts(double query_radius) const {
  PredictedCost total;
  for (const auto& node : stats_.nodes) {
    const double p = histogram_.Cdf(node.covering_radius + query_radius);
    total.nodes += p;
    total.distances += static_cast<double>(node.num_entries) * p;
  }
  return total;
}

double NodeBasedCostModel::RangeNodes(double query_radius) const {
  return RangeCosts(query_radius).nodes;
}

std::vector<double> NodeBasedCostModel::RangeNodesPerLevel(
    double query_radius) const {
  std::vector<double> per_level(stats_.height, 0.0);
  for (const auto& node : stats_.nodes) {
    const size_t idx = node.level == 0 ? 0 : node.level - 1;
    if (idx >= per_level.size()) {
      per_level.resize(idx + 1, 0.0);
    }
    per_level[idx] += histogram_.Cdf(node.covering_radius + query_radius);
  }
  return per_level;
}

double NodeBasedCostModel::RangeDistances(double query_radius) const {
  return RangeCosts(query_radius).distances;
}

std::vector<double> NodeBasedCostModel::RangeDistancesPerLevel(
    double query_radius) const {
  std::vector<double> per_level(stats_.height, 0.0);
  for (const auto& node : stats_.nodes) {
    const size_t idx = node.level == 0 ? 0 : node.level - 1;
    if (idx >= per_level.size()) {
      per_level.resize(idx + 1, 0.0);
    }
    per_level[idx] += static_cast<double>(node.num_entries) *
                      histogram_.Cdf(node.covering_radius + query_radius);
  }
  return per_level;
}

double NodeBasedCostModel::RangeObjects(double query_radius) const {
  return static_cast<double>(stats_.num_objects) *
         histogram_.Cdf(query_radius);
}

namespace {

/// Combined access/match probability from per-predicate probabilities.
double CombineProbability(const std::vector<double>& probabilities,
                          bool conjunctive) {
  double product = 1.0;
  if (conjunctive) {
    for (double p : probabilities) product *= p;
    return product;
  }
  for (double p : probabilities) product *= 1.0 - p;
  return 1.0 - product;
}

}  // namespace

double NodeBasedCostModel::ComplexRangeNodes(const std::vector<double>& radii,
                                             bool conjunctive) const {
  double total = 0.0;
  std::vector<double> probs(radii.size());
  for (const auto& node : stats_.nodes) {
    for (size_t j = 0; j < radii.size(); ++j) {
      probs[j] = histogram_.Cdf(node.covering_radius + radii[j]);
    }
    total += CombineProbability(probs, conjunctive);
  }
  return total;
}

double NodeBasedCostModel::ComplexRangeDistances(
    const std::vector<double>& radii, bool conjunctive) const {
  double total = 0.0;
  std::vector<double> probs(radii.size());
  for (const auto& node : stats_.nodes) {
    for (size_t j = 0; j < radii.size(); ++j) {
      probs[j] = histogram_.Cdf(node.covering_radius + radii[j]);
    }
    total += static_cast<double>(node.num_entries) *
             static_cast<double>(radii.size()) *
             CombineProbability(probs, conjunctive);
  }
  return total;
}

double NodeBasedCostModel::ComplexRangeObjects(
    const std::vector<double>& radii, bool conjunctive) const {
  std::vector<double> probs(radii.size());
  for (size_t j = 0; j < radii.size(); ++j) {
    probs[j] = histogram_.Cdf(radii[j]);
  }
  return static_cast<double>(stats_.num_objects) *
         CombineProbability(probs, conjunctive);
}

PredictedCost NodeBasedCostModel::NnCosts(size_t k) const {
  PredictedCost total;
  nn_model_.ForEachNnMass(k, [&](double r, double mass) {
    const PredictedCost at = RangeCosts(r);
    total.nodes += at.nodes * mass;
    total.distances += at.distances * mass;
  });
  return total;
}

double NodeBasedCostModel::NnNodes(size_t k) const {
  return NnCosts(k).nodes;
}

double NodeBasedCostModel::NnDistances(size_t k) const {
  return NnCosts(k).distances;
}

std::vector<double> NodeBasedCostModel::NnNodesPerLevel(size_t k) const {
  std::vector<double> per_level(stats_.height, 0.0);
  for (size_t idx = 0; idx < per_level.size(); ++idx) {
    per_level[idx] = nn_model_.IntegrateAgainstNnDensity(
        [this, idx](double r) {
          const auto levels = RangeNodesPerLevel(r);
          return idx < levels.size() ? levels[idx] : 0.0;
        },
        k);
  }
  return per_level;
}

std::vector<double> NodeBasedCostModel::NnDistancesPerLevel(size_t k) const {
  std::vector<double> per_level(stats_.height, 0.0);
  for (size_t idx = 0; idx < per_level.size(); ++idx) {
    per_level[idx] = nn_model_.IntegrateAgainstNnDensity(
        [this, idx](double r) {
          const auto levels = RangeDistancesPerLevel(r);
          return idx < levels.size() ? levels[idx] : 0.0;
        },
        k);
  }
  return per_level;
}

}  // namespace mcm
