// Shard assignment: splits one logical object set into N member lists,
// either by hashing object ids (uniform, metric-blind) or by clustered
// pivot assignment (reservoir-sampled seeds, nearest-seed placement — the
// same seed-sampling idiom StreamBulkLoader uses for its partition pass).
// Clustered shards are metrically compact, which is what lets the router's
// per-shard annuli prove range queries empty, and every member is no
// farther from its own seed than from any other, which gives the router
// its Voronoi bound (partition.h only produces memberships; the proof
// machinery lives in sharded_index.h and router.h).
//
// Everything here is deterministic: seeds come from common/random.h
// streams, ties in the nearest-seed test resolve toward the lower shard
// id, and member lists preserve the source ordering.

#ifndef MCM_SHARD_PARTITION_H_
#define MCM_SHARD_PARTITION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcm/common/env.h"
#include "mcm/common/random.h"

namespace mcm {
namespace shard {

/// Seed stream for shard-seed reservoir sampling (estimator uses 7, the
/// M-tree promotion rng 3, bulk partitions 16+p; 11 is unclaimed).
inline constexpr uint64_t kShardSeedStream = 11;

/// How objects are assigned to shards.
enum class Assignment : uint8_t {
  kHash = 0,       ///< SplitMix64 of the object id, modulo N.
  kClustered = 1,  ///< Nearest of N reservoir-sampled seed objects.
};

inline const char* ToString(Assignment assignment) {
  return assignment == Assignment::kHash ? "hash" : "clustered";
}

/// Parses "hash" / "clustered"; anything else throws.
inline Assignment ParseAssignment(const std::string& name) {
  if (name == "hash") return Assignment::kHash;
  if (name == "clustered") return Assignment::kClustered;
  throw std::invalid_argument("ParseAssignment: unknown policy '" + name +
                              "' (expected hash or clustered)");
}

/// Resolves the MCM_SHARD_ASSIGN environment knob (default: clustered).
inline Assignment AssignmentFromEnv() {
  return ParseAssignment(GetEnvString("MCM_SHARD_ASSIGN", "clustered"));
}

/// A membership plan over positions into the source object vector. Member
/// lists are ascending (source order), so a one-shard plan reproduces the
/// unsharded input exactly.
struct Plan {
  Assignment assignment = Assignment::kClustered;
  size_t num_shards = 0;
  /// members[s] = positions of shard s's objects, ascending.
  std::vector<std::vector<size_t>> members;
  /// pivot_positions[s] = the shard's pivot (clustered: its seed; hash:
  /// its first member). Meaningful only when members[s] is non-empty.
  std::vector<size_t> pivot_positions;
};

/// Hash placement of one object id (SplitMix64 finalizer, modulo N).
inline size_t HashShard(uint64_t oid, size_t num_shards) {
  return static_cast<size_t>(DeriveSeed(oid, 0) % num_shards);
}

/// Builds the membership plan. Clustered assignment reservoir-samples
/// min(N, n) seed positions (stream kShardSeedStream of `seed`), sorts
/// them ascending so shard ids are stable, and places every object with
/// its nearest seed (ties toward the lower shard id). The n·N assignment
/// distances are build-time cost and are not charged to any query.
template <typename Object, typename Metric>
Plan PlanShards(const std::vector<Object>& objects, const Metric& metric,
                size_t num_shards, Assignment assignment, uint64_t seed) {
  if (num_shards == 0) {
    throw std::invalid_argument("PlanShards: num_shards must be >= 1");
  }
  Plan plan;
  plan.assignment = assignment;
  plan.num_shards = num_shards;
  plan.members.resize(num_shards);
  plan.pivot_positions.assign(num_shards, 0);
  const size_t n = objects.size();
  if (n == 0) return plan;

  if (assignment == Assignment::kHash || num_shards == 1) {
    for (size_t i = 0; i < n; ++i) {
      const size_t s =
          num_shards == 1 ? 0 : HashShard(static_cast<uint64_t>(i),
                                          num_shards);
      if (plan.members[s].empty()) plan.pivot_positions[s] = i;
      plan.members[s].push_back(i);
    }
    return plan;
  }

  // Reservoir sample (algorithm R) of seed positions, then sort so the
  // shard numbering does not depend on the replacement schedule.
  const size_t num_seeds = num_shards < n ? num_shards : n;
  std::vector<size_t> seeds;
  seeds.reserve(num_seeds);
  RandomEngine rng = MakeEngine(seed, kShardSeedStream);
  for (size_t i = 0; i < n; ++i) {
    if (seeds.size() < num_seeds) {
      seeds.push_back(i);
    } else {
      const size_t j = UniformIndex(rng, i + 1);
      if (j < num_seeds) seeds[j] = i;
    }
  }
  std::sort(seeds.begin(), seeds.end());
  for (size_t s = 0; s < num_seeds; ++s) {
    plan.pivot_positions[s] = seeds[s];
  }

  for (size_t i = 0; i < n; ++i) {
    size_t best = 0;
    double best_distance = metric(objects[i], objects[seeds[0]]);
    for (size_t s = 1; s < num_seeds; ++s) {
      const double d = metric(objects[i], objects[seeds[s]]);
      if (d < best_distance) {  // Ties keep the lower shard id.
        best_distance = d;
        best = s;
      }
    }
    plan.members[best].push_back(i);
  }
  return plan;
}

}  // namespace shard
}  // namespace mcm

#endif  // MCM_SHARD_PARTITION_H_
