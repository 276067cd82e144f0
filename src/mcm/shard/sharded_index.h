// A sharded M-tree: N self-contained per-shard trees plus, for each
// shard, the cost-model sidecar the router steers by — the shard's own
// sampled distance distribution F̂_s (Section 2.1 applied per shard), its
// N-MCM model over the shard's node statistics, and an exact pivot
// annulus [rmin, rmax] = support of d(pivot, member) over every member.
// The annulus is what makes shard skipping *provable*: for any query Q
// and shard member O the triangle inequality gives
//   d(Q, O) >= max(d(Q, pivot) - rmax, rmin - d(Q, pivot), 0),
// so a range query whose radius falls below that bound cannot match
// anything in the shard (router.h turns this into skip decisions, and
// adds the Voronoi bound for clustered shards, whose pivot is the seed
// every member is nearest to).
//
// Build is deterministic (partition.h plans memberships, each shard is
// bulk-loaded with its members in source order carrying their original
// object ids), so a one-shard build is the unsharded index bit for bit.
// SaveShardedMTree / OpenShardedMTree persist each shard through
// mtree/persist.h plus one `<path>.shards` manifest holding the sidecars.

#ifndef MCM_SHARD_SHARDED_INDEX_H_
#define MCM_SHARD_SHARDED_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mcm/cost/nmcm.h"
#include "mcm/cost/tree_stats.h"
#include "mcm/distribution/estimator.h"
#include "mcm/distribution/histogram.h"
#include "mcm/metric/bytes.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/mtree.h"
#include "mcm/mtree/options.h"
#include "mcm/mtree/persist.h"
#include "mcm/shard/partition.h"

namespace mcm {
namespace shard {

/// Build configuration for a sharded index.
struct ShardedOptions {
  size_t num_shards = 1;
  Assignment assignment = AssignmentFromEnv();
  /// Per-shard tree options (node size, policies, witness capacity, ...).
  MTreeOptions tree;
  /// Per-shard distance-distribution estimate (F̂_s).
  size_t histogram_bins = 100;
  size_t max_histogram_pairs = 200000;
  /// Upper bound d⁺ of the metric space; <= 0 derives it from a strided
  /// pair sample (max seen, times 1.05 headroom).
  double d_plus = -1.0;
  uint64_t seed = 42;
};

/// Per-shard routing state: the skip proof (pivot + exact annulus) and
/// the cost models (histogram + node stats). Shards with fewer than two
/// members carry no histogram and no model; the router prices them at
/// zero.
template <typename Traits>
struct ShardSidecar {
  typename Traits::Object pivot{};
  double rmin = 0.0;  ///< min over members of d(pivot, member).
  double rmax = 0.0;  ///< max over members of d(pivot, member).
  std::optional<DistanceHistogram> histogram;
  MTreeStatsView stats;
  std::optional<NodeBasedCostModel> model;
};

/// Derives d⁺ from a strided pair sample (the mcm_explain idiom): the
/// maximum sampled distance with 5% headroom, so histogram mass never
/// lands in the overflow bin for in-sample data.
template <typename Object, typename Metric>
double DeriveDPlusSample(const std::vector<Object>& objects,
                         const Metric& metric) {
  if (objects.size() < 2) return 1.0;
  const size_t stride = objects.size() > 64 ? objects.size() / 64 : 1;
  double max_distance = 0.0;
  for (size_t i = 0; i < objects.size(); i += stride) {
    for (size_t j = i + stride; j < objects.size(); j += stride) {
      max_distance = std::max(max_distance, metric(objects[i], objects[j]));
    }
  }
  return max_distance > 0.0 ? max_distance * 1.05 : 1.0;
}

/// N self-contained M-trees over one logical object set, with per-shard
/// cost-model sidecars. Immutable once built; searched through
/// shard::ShardRouter.
template <typename Traits>
class ShardedMTree {
 public:
  using Object = typename Traits::Object;
  using Metric = typename Traits::Metric;
  using Tree = MTree<Traits>;

  /// Builds `options.num_shards` shards over `objects`; object ids are
  /// source positions, exactly as MTree::BulkLoad assigns them, so shard
  /// answers merge into the unsharded answer without translation.
  static ShardedMTree Create(const std::vector<Object>& objects,
                            Metric metric, ShardedOptions options) {
    if (options.num_shards == 0) {
      throw std::invalid_argument("ShardedMTree: num_shards must be >= 1");
    }
    ShardedMTree index(std::move(metric), options);
    if (index.options_.d_plus <= 0.0) {
      index.options_.d_plus = DeriveDPlusSample(objects, index.metric_);
    }
    const Plan plan =
        PlanShards(objects, index.metric_, options.num_shards,
                   options.assignment, options.seed);
    index.trees_.reserve(options.num_shards);
    index.sidecars_.resize(options.num_shards);
    index.oids_.resize(options.num_shards);
    for (size_t s = 0; s < options.num_shards; ++s) {
      std::vector<Object> members;
      members.reserve(plan.members[s].size());
      std::vector<uint64_t>& oids = index.oids_[s];
      oids.reserve(plan.members[s].size());
      for (const size_t position : plan.members[s]) {
        members.push_back(objects[position]);
        oids.push_back(static_cast<uint64_t>(position));
      }
      index.trees_.push_back(BulkLoader<Traits>::Load(
          members, oids, index.metric_, options.tree, nullptr));
      ShardSidecar<Traits>& sidecar = index.sidecars_[s];
      if (!members.empty()) {
        sidecar.pivot = objects[plan.pivot_positions[s]];
        sidecar.rmin = std::numeric_limits<double>::infinity();
        sidecar.rmax = 0.0;
        for (const Object& member : members) {
          const double d = index.metric_(sidecar.pivot, member);
          sidecar.rmin = std::min(sidecar.rmin, d);
          sidecar.rmax = std::max(sidecar.rmax, d);
        }
      }
      if (members.size() >= 2) {
        EstimatorOptions estimate;
        estimate.num_bins = options.histogram_bins;
        estimate.d_plus = index.options_.d_plus;
        estimate.max_pairs = options.max_histogram_pairs;
        estimate.seed = DeriveSeed(options.seed, 32 + s);
        sidecar.histogram.emplace(EstimateDistanceDistribution(
            members, index.metric_, estimate));
      }
    }
    index.FinishSidecars();
    return index;
  }

  size_t num_shards() const { return trees_.size(); }
  const Tree& tree(size_t s) const { return trees_[s]; }
  const ShardSidecar<Traits>& sidecar(size_t s) const {
    return sidecars_[s];
  }
  /// Original object ids per shard (build only; empty after reopening a
  /// persisted index — the ids live inside the shard trees either way).
  const std::vector<uint64_t>& shard_oids(size_t s) const {
    return oids_[s];
  }

  /// Total objects across shards.
  size_t size() const {
    size_t total = 0;
    for (const Tree& tree : trees_) total += tree.size();
    return total;
  }

  double d_plus() const { return options_.d_plus; }
  Assignment assignment() const { return options_.assignment; }
  const Metric& metric() const { return metric_; }
  const ShardedOptions& options() const { return options_; }

  ShardedMTree(const ShardedMTree&) = delete;
  ShardedMTree& operator=(const ShardedMTree&) = delete;
  ShardedMTree(ShardedMTree&&) = default;
  ShardedMTree& operator=(ShardedMTree&&) = default;

 private:
  template <typename T>
  friend ShardedMTree<T> OpenShardedMTree(const std::string&,
                                          typename T::Metric,
                                          ShardedOptions);

  ShardedMTree(Metric metric, ShardedOptions options)
      : metric_(std::move(metric)), options_(std::move(options)) {}

  /// Recomputes node statistics and instantiates the per-shard N-MCM
  /// models. Called once the sidecar vector has its final size (the model
  /// copies the histogram, so no address stability is required — this is
  /// purely a build/open finalization step).
  void FinishSidecars() {
    for (size_t s = 0; s < trees_.size(); ++s) {
      ShardSidecar<Traits>& sidecar = sidecars_[s];
      sidecar.stats = trees_[s].CollectStats(options_.d_plus);
      if (sidecar.histogram.has_value() && sidecar.stats.num_nodes() > 0) {
        sidecar.model.emplace(*sidecar.histogram, sidecar.stats);
      }
    }
  }

  Metric metric_;
  ShardedOptions options_;
  std::vector<Tree> trees_;
  std::vector<ShardSidecar<Traits>> sidecars_;
  std::vector<std::vector<uint64_t>> oids_;
};

namespace shard_internal {

inline constexpr uint32_t kManifestMagic = 0x4d435348;  // "MCSH".
inline constexpr uint32_t kManifestVersion = 1;

inline std::string ManifestPath(const std::string& path) {
  return path + ".shards";
}

inline std::string ShardPath(const std::string& path, size_t s) {
  return path + ".shard" + std::to_string(s);
}

}  // namespace shard_internal

/// Saves every shard tree (mtree/persist.h format, one `<path>.shardK`
/// per shard) plus the `<path>.shards` manifest carrying the sidecars.
template <typename Traits>
void SaveShardedMTree(const ShardedMTree<Traits>& index,
                      const std::string& path) {
  std::vector<uint8_t> buffer;
  ByteWriter writer(&buffer);
  writer.Put<uint32_t>(shard_internal::kManifestMagic);
  writer.Put<uint32_t>(shard_internal::kManifestVersion);
  writer.Put<uint32_t>(static_cast<uint32_t>(index.num_shards()));
  writer.Put<uint8_t>(static_cast<uint8_t>(index.assignment()));
  writer.Put<double>(index.d_plus());
  for (size_t s = 0; s < index.num_shards(); ++s) {
    SaveMTree(index.tree(s), shard_internal::ShardPath(path, s));
    const ShardSidecar<Traits>& sidecar = index.sidecar(s);
    const uint8_t has_pivot = index.tree(s).size() > 0 ? 1 : 0;
    writer.Put<uint8_t>(has_pivot);
    if (has_pivot != 0) {
      Traits::Serialize(sidecar.pivot, writer);
      writer.Put<double>(sidecar.rmin);
      writer.Put<double>(sidecar.rmax);
    }
    const uint8_t has_histogram = sidecar.histogram.has_value() ? 1 : 0;
    writer.Put<uint8_t>(has_histogram);
    if (has_histogram != 0) {
      const std::vector<double>& masses = sidecar.histogram->masses();
      writer.Put<uint32_t>(static_cast<uint32_t>(masses.size()));
      for (const double mass : masses) writer.Put<double>(mass);
    }
  }
  const std::string manifest = shard_internal::ManifestPath(path);
  std::FILE* file = std::fopen(manifest.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("SaveShardedMTree: cannot write " + manifest);
  }
  const size_t written =
      buffer.empty() ? 0 : std::fwrite(buffer.data(), 1, buffer.size(), file);
  const int close_error = std::fclose(file);
  if (written != buffer.size() || close_error != 0) {
    throw std::runtime_error("SaveShardedMTree: short write to " + manifest);
  }
}

/// Reopens a sharded index saved by SaveShardedMTree. `metric` and
/// `options.tree` must match build time (same contract as OpenMTree);
/// num_shards / assignment / d_plus are taken from the manifest. Node
/// statistics are recollected from the reopened trees, histograms come
/// from the manifest, so router decisions match the pre-save index.
template <typename Traits>
ShardedMTree<Traits> OpenShardedMTree(const std::string& path,
                                      typename Traits::Metric metric,
                                      ShardedOptions options) {
  const std::string manifest = shard_internal::ManifestPath(path);
  std::FILE* file = std::fopen(manifest.c_str(), "rb");
  if (file == nullptr) {
    throw std::runtime_error("OpenShardedMTree: cannot read " + manifest);
  }
  std::vector<uint8_t> buffer;
  uint8_t chunk[4096];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    buffer.insert(buffer.end(), chunk, chunk + got);
  }
  std::fclose(file);
  ByteReader reader(buffer.data(), buffer.size());
  if (reader.Get<uint32_t>() != shard_internal::kManifestMagic) {
    throw std::runtime_error("OpenShardedMTree: bad manifest magic in " +
                             manifest);
  }
  if (reader.Get<uint32_t>() != shard_internal::kManifestVersion) {
    throw std::runtime_error("OpenShardedMTree: unsupported version");
  }
  const uint32_t num_shards = reader.Get<uint32_t>();
  options.num_shards = num_shards;
  options.assignment = static_cast<Assignment>(reader.Get<uint8_t>());
  options.d_plus = reader.Get<double>();

  ShardedMTree<Traits> index(std::move(metric), options);
  index.trees_.reserve(num_shards);
  index.sidecars_.resize(num_shards);
  index.oids_.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    index.trees_.push_back(OpenMTree<Traits>(
        shard_internal::ShardPath(path, s), index.metric_, options.tree));
    ShardSidecar<Traits>& sidecar = index.sidecars_[s];
    if (reader.Get<uint8_t>() != 0) {
      sidecar.pivot = Traits::Deserialize(reader);
      sidecar.rmin = reader.Get<double>();
      sidecar.rmax = reader.Get<double>();
    }
    if (reader.Get<uint8_t>() != 0) {
      const uint32_t num_bins = reader.Get<uint32_t>();
      std::vector<double> masses(num_bins);
      for (uint32_t b = 0; b < num_bins; ++b) {
        masses[b] = reader.Get<double>();
      }
      sidecar.histogram.emplace(
          DistanceHistogram::FromMasses(masses, options.d_plus));
    }
  }
  index.FinishSidecars();
  return index;
}

}  // namespace shard
}  // namespace mcm

#endif  // MCM_SHARD_SHARDED_INDEX_H_
