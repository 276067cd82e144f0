// The M-tree (Ciaccia, Patella, Zezula; VLDB'97): a paged, dynamic,
// balanced metric access method. This is the index the paper's cost model
// predicts. Supports dynamic insertion with the VLDB'97 split policies,
// range and optimal k-NN search, and statistics export for the cost models.
//
// Search runs in one of two pruning modes (options.h): kBasic computes the
// distance from the query to every entry of every accessed node — exactly
// the CPU cost the paper models (footnote 2) — while kOptimized applies the
// stored-parent-distance pruning of the original M-tree.

#ifndef MCM_MTREE_MTREE_H_
#define MCM_MTREE_MTREE_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "mcm/common/query_stats.h"
#include "mcm/common/random.h"
#include "mcm/cost/tree_stats.h"
#include "mcm/engine/search_core.h"
#include "mcm/engine/witness.h"
#include "mcm/mtree/node.h"
#include "mcm/mtree/node_store.h"
#include "mcm/mtree/options.h"
#include "mcm/mtree/split.h"
#include "mcm/obs/phase.h"
#include "mcm/obs/trace.h"

namespace mcm {

template <typename Traits>
class BulkLoader;

template <typename Traits>
class StreamBulkLoader;

template <typename Traits>
class MTree {
 public:
  using Object = typename Traits::Object;
  using Metric = typename Traits::Metric;
  using Node = MTreeNode<Traits>;
  using Result = SearchResult<Object>;

  /// Creates an empty tree. When `store` is null a MemoryNodeStore is used.
  MTree(Metric metric, MTreeOptions options,
        std::unique_ptr<NodeStore<Traits>> store = nullptr)
      : metric_(std::move(metric)),
        options_(options),
        store_(store ? std::move(store)
                     : std::make_unique<MemoryNodeStore<Traits>>()),
        witness_capacity_(
            engine::ResolveWitnessCapacity(options.witness_capacity)),
        rng_(MakeEngine(options.seed, /*stream=*/3)) {
    if (options_.node_size_bytes <= Node::HeaderSize()) {
      throw std::invalid_argument("MTree: node size too small");
    }
  }

  /// Bulk-loads a tree from `objects` (oid = position index). Implemented in
  /// bulk_load.h; declared here for discoverability.
  static MTree BulkLoad(const std::vector<Object>& objects, Metric metric,
                        MTreeOptions options,
                        std::unique_ptr<NodeStore<Traits>> store = nullptr);

  /// Inserts one object with external id `oid`.
  void Insert(const Object& object, uint64_t oid) {
    if (Node::LeafEntrySize(object) + Node::HeaderSize() >
        options_.node_size_bytes) {
      throw std::invalid_argument("MTree::Insert: object exceeds node size");
    }
    if (root_ == kInvalidNodeId) {
      root_ = store_->Allocate();
      Node node;
      node.is_leaf = true;
      node.leaf_entries.push_back({object, oid, 0.0, {}});
      store_->Write(root_, node);
      height_ = 1;
      num_objects_ = 1;
      NotifyModified();
      return;
    }
    auto split = InsertRecursive(root_, nullptr, object, oid);
    if (split.has_value()) {
      // A root split deepens the tree: every stored ancestor distance is
      // indexed by absolute depth, so the cascade is invalidated wholesale
      // (re-install it with InstallWitnessCascade). Non-root leaf splits
      // keep the cascade: moved entries retain their above-parent
      // ancestors and freshly promoted entries carry empty (safe) arrays.
      // Internal splits clear it in SplitNode.
      cascade_installed_ = false;
      Node new_root;
      new_root.is_leaf = false;
      split->first.parent_distance = 0.0;
      split->second.parent_distance = 0.0;
      new_root.routing_entries.push_back(std::move(split->first));
      new_root.routing_entries.push_back(std::move(split->second));
      const NodeId new_root_id = store_->Allocate();
      store_->Write(new_root_id, new_root);
      root_ = new_root_id;
      ++height_;
    }
    ++num_objects_;
    NotifyModified();
  }

  /// range(Q, r_Q): all objects within distance `radius` of `query`,
  /// sorted by increasing distance. Fills `stats` (if given) with the
  /// paper's I/O and CPU cost counters.
  std::vector<Result> RangeSearch(const Object& query, double radius,
                                  QueryStats* stats = nullptr) const {
    QueryStats local;
    QueryStats* st = stats ? stats : &local;
    ResetCounters(st);
    if (root_ == kInvalidNodeId || radius < 0.0) {
      return {};
    }
    engine::RangeCollector<Object> collector(radius);
    Traverse(query, collector, st, PruneReason::kCoveringRadius);
    ScopedSpan collect_span(st, QueryPhase::kCollect);
    return collector.Take();
  }

  /// NN(Q, k): the k nearest neighbors of `query`, sorted by increasing
  /// distance (fewer if the tree holds fewer than k objects). Implements
  /// the optimal best-first algorithm: only nodes whose region intersects
  /// the final NN(Q, k) ball are accessed.
  std::vector<Result> KnnSearch(const Object& query, size_t k,
                                QueryStats* stats = nullptr) const {
    QueryStats local;
    QueryStats* st = stats ? stats : &local;
    ResetCounters(st);
    if (root_ == kInvalidNodeId || k == 0) {
      return {};
    }
    engine::KnnCollector<Object> collector(k);
    Traverse(query, collector, st, PruneReason::kKnnBound);
    ScopedSpan collect_span(st, QueryPhase::kCollect);
    return collector.Take();
  }

  /// A single similarity predicate of a complex query: "within `radius`
  /// of `query`".
  struct Predicate {
    Object query;
    double radius = 0.0;
  };

  /// How the predicates of a complex query combine.
  enum class Combine {
    kAnd,  ///< Conjunction: every predicate must hold.
    kOr,   ///< Disjunction: at least one predicate must hold.
  };

  /// Complex similarity query (future work #3; EDBT'98 [11]): objects
  /// satisfying the conjunction/disjunction of several range predicates,
  /// evaluated in a single tree traversal. A node is visited iff its ball
  /// can intersect every (kAnd) / any (kOr) predicate ball; each accessed
  /// entry computes one distance per predicate (counted in `stats`).
  /// Results are sorted by the combined distance: max over predicates for
  /// kAnd, min for kOr.
  std::vector<Result> ComplexRangeSearch(
      const std::vector<Predicate>& predicates, Combine combine,
      QueryStats* stats = nullptr) const {
    QueryStats local;
    QueryStats* st = stats ? stats : &local;
    ResetCounters(st);
    std::vector<Result> results;
    if (root_ == kInvalidNodeId || predicates.empty()) {
      return results;
    }
    ComplexRecurse(root_, predicates, combine, /*level=*/1, st, &results);
    ScopedSpan collect_span(st, QueryPhase::kCollect);
    std::sort(results.begin(), results.end(),
              [](const Result& a, const Result& b) {
                return a.distance < b.distance;
              });
    return results;
  }

  /// Deletes the object equal to `object` (distance 0) carrying id `oid`.
  /// Returns false when no such entry exists.
  ///
  /// The original M-tree paper defines no deletion; this implements the
  /// standard conservative scheme: the entry is removed from its leaf,
  /// emptied nodes are unlinked bottom-up, a single-child root collapses,
  /// and covering radii are left untouched (they remain valid — possibly
  /// loose — upper bounds, so all search invariants still hold).
  bool Delete(const Object& object, uint64_t oid) {
    if (root_ == kInvalidNodeId) {
      return false;
    }
    if (!DeleteRecurse(root_, object, oid)) {
      return false;
    }
    --num_objects_;
    const uint32_t height_before = height_;
    CollapseRoot();
    if (height_ != height_before) {
      // Collapsing the root shifts every depth, invalidating the
      // depth-indexed ancestor distances. Removals alone keep the
      // surviving entries' stored distances exact.
      cascade_installed_ = false;
    }
    NotifyModified();
    return true;
  }

  /// Installs `hook`, invoked after every successful Insert/Delete with the
  /// tree in its post-mutation state. The invariant checker
  /// (mcm/check/check_mtree.h) uses this to re-validate the structure after
  /// each mutation when MCM_CHECK_INVARIANTS=1. Pass nullptr to clear.
  void set_post_modify_hook(std::function<void(const MTree&)> hook) {
    post_modify_hook_ = std::move(hook);
  }

  /// Reattaches a tree whose nodes already live in `store` — the
  /// persistence layer (mtree/persist.h) uses this to reopen a saved index.
  /// The caller must pass the same metric and options the tree was built
  /// with; `root`, `num_objects` and `height` come from the saved metadata.
  static MTree Attach(Metric metric, MTreeOptions options,
                      std::unique_ptr<NodeStore<Traits>> store, NodeId root,
                      size_t num_objects, uint32_t height,
                      bool cascade_installed = false) {
    MTree tree(std::move(metric), options, std::move(store));
    tree.root_ = root;
    tree.num_objects_ = num_objects;
    tree.height_ = height;
    tree.cascade_installed_ = cascade_installed;
    return tree;
  }

  /// Number of indexed objects.
  size_t size() const { return num_objects_; }

  /// Tree height L (0 for an empty tree; root = level 1, leaves = level L).
  uint32_t height() const { return height_; }

  NodeId root() const { return root_; }
  const MTreeOptions& options() const { return options_; }
  const Metric& metric() const { return metric_; }
  NodeStore<Traits>& store() const { return *store_; }

  /// Resolved witness-set capacity (options.witness_capacity, with -1
  /// resolved from MCM_WITNESSES at construction).
  int witness_capacity() const { return witness_capacity_; }

  /// True once InstallWitnessCascade has stored per-entry ancestor
  /// distances and no structural change has invalidated them since.
  bool cascade_installed() const { return cascade_installed_; }

  /// Installs the witness cascade: walks the tree top-down and stores, in
  /// every entry, its exact metric distances to the routing objects
  /// strictly above its parent (indexed by 0-based depth). These are the
  /// stored side of the engine's witness bounds; search consults them only
  /// while cascade_installed() holds (root splits, internal-node splits and
  /// root collapses clear the flag — re-run this pass to restore it).
  ///
  /// Build-time metric evaluations are intentionally uncounted, like those
  /// of Insert/BulkLoad. A node whose serialized form would overflow the
  /// page with the arrays attached keeps them empty (a safe fallback: its
  /// entries simply contribute no witness bounds).
  void InstallWitnessCascade() {
    if (root_ != kInvalidNodeId) {
      std::vector<const Object*> path;
      InstallCascadeRecurse(root_, &path);
    }
    cascade_installed_ = true;
  }

  /// Snapshots the statistics the cost models need. `root_radius` is the
  /// conventional covering radius of the root — d⁺ per footnote 1.
  MTreeStatsView CollectStats(double root_radius) const {
    MTreeStatsView view;
    view.num_objects = num_objects_;
    view.height = height_;
    if (root_ == kInvalidNodeId) {
      return view;
    }
    struct Item {
      NodeId id;
      uint32_t level;
      double radius;
    };
    std::vector<Item> frontier{{root_, 1, root_radius}};
    while (!frontier.empty()) {
      const Item item = frontier.back();
      frontier.pop_back();
      const Node node = store_->Read(item.id);
      NodeStatRecord rec;
      rec.level = item.level;
      rec.covering_radius = item.radius;
      rec.num_entries = static_cast<uint32_t>(node.NumEntries());
      rec.is_leaf = node.is_leaf;
      view.nodes.push_back(rec);
      if (!node.is_leaf) {
        for (const auto& e : node.routing_entries) {
          frontier.push_back({e.child, item.level + 1, e.covering_radius});
        }
      }
    }
    view.levels = AggregateLevels(view.nodes);
    return view;
  }

 private:
  friend class BulkLoader<Traits>;
  friend class StreamBulkLoader<Traits>;

  struct SplitInfo {
    RoutingEntry<Object> first;
    RoutingEntry<Object> second;
  };

  double Dist(const Object& a, const Object& b, QueryStats* st) const {
    ++st->distance_computations;
    return metric_(a, b);
  }

  /// Fills the ancestor-distance arrays of the subtree at `id`. `path`
  /// holds the routing objects on the way down (depths 0..l-1 for a node
  /// at depth l); entries store distances to all of them but the last (the
  /// parent, already covered by parent_distance).
  void InstallCascadeRecurse(NodeId id, std::vector<const Object*>* path) {
    Node node = store_->Read(id);
    const size_t above_parent = path->empty() ? 0 : path->size() - 1;
    auto fill = [&](const Object& object, std::vector<double>* distances) {
      distances->clear();
      distances->reserve(above_parent);
      for (size_t i = 0; i < above_parent; ++i) {
        distances->push_back(metric_(*(*path)[i], object));
      }
    };
    if (node.is_leaf) {
      for (auto& e : node.leaf_entries) fill(e.object, &e.ancestor_distances);
    } else {
      for (auto& e : node.routing_entries) {
        fill(e.object, &e.ancestor_distances);
      }
    }
    if (node.SerializedSize() > options_.node_size_bytes) {
      // The arrays do not fit this page: keep the node in the historical
      // layout. Its entries contribute no witness bounds.
      if (node.is_leaf) {
        for (auto& e : node.leaf_entries) e.ancestor_distances.clear();
      } else {
        for (auto& e : node.routing_entries) e.ancestor_distances.clear();
      }
    }
    store_->Write(id, node);
    if (!node.is_leaf) {
      for (const auto& e : node.routing_entries) {
        path->push_back(&e.object);
        InstallCascadeRecurse(e.child, path);
        path->pop_back();
      }
    }
  }

  void NotifyModified() const {
    if (post_modify_hook_) {
      post_modify_hook_(*this);
    }
  }

  void ComplexRecurse(NodeId id, const std::vector<Predicate>& predicates,
                      Combine combine, uint32_t level, QueryStats* st,
                      std::vector<Result>* out) const {
    // Full (unbounded) distances throughout: the reported combined distance
    // is max/min over predicates, so every predicate's exact value matters.
    const auto node = store_->ReadShared(id, st);
    ++st->nodes_accessed;
    const bool conjunctive = combine == Combine::kAnd;
    if (node->is_leaf) {
      for (const auto& e : node->leaf_entries) {
        bool all = true, any = false;
        double combined = conjunctive ? 0.0
                                      : std::numeric_limits<double>::max();
        for (const auto& p : predicates) {
          const double d = Dist(p.query, e.object, st);
          const bool hit = d <= p.radius;
          all = all && hit;
          any = any || hit;
          combined = conjunctive ? std::max(combined, d)
                                 : std::min(combined, d);
        }
        if (conjunctive ? all : any) {
          out->push_back({e.oid, e.object, combined});
        }
      }
      if (st->trace != nullptr) {
        const auto scanned =
            static_cast<uint32_t>(node->leaf_entries.size());
        st->trace->RecordVisit(
            id, level, scanned, 0,
            scanned * static_cast<uint32_t>(predicates.size()));
      }
      return;
    }
    uint32_t scanned = 0;
    for (const auto& e : node->routing_entries) {
      bool all = true, any = false;
      for (const auto& p : predicates) {
        const double d = Dist(p.query, e.object, st);
        const bool overlap = d <= e.covering_radius + p.radius;
        all = all && overlap;
        any = any || overlap;
      }
      ++scanned;
      if (conjunctive ? all : any) {
        ComplexRecurse(e.child, predicates, combine, level + 1, st, out);
      } else {
        ++st->nodes_pruned;
        if (st->trace != nullptr) {
          st->trace->RecordPrune(e.child, level + 1,
                                 PruneReason::kCoveringRadius);
        }
      }
    }
    if (st->trace != nullptr) {
      st->trace->RecordVisit(
          id, level, scanned, 0,
          scanned * static_cast<uint32_t>(predicates.size()));
    }
  }

  /// Removes (object, oid) from the subtree at `id`; prunes emptied
  /// children on the way back up. Returns true when the entry was found.
  bool DeleteRecurse(NodeId id, const Object& object, uint64_t oid) {
    Node node = store_->Read(id);
    if (node.is_leaf) {
      for (auto it = node.leaf_entries.begin(); it != node.leaf_entries.end();
           ++it) {
        if (it->oid == oid && metric_(it->object, object) == 0.0) {
          node.leaf_entries.erase(it);
          store_->Write(id, node);
          return true;
        }
      }
      return false;
    }
    for (auto it = node.routing_entries.begin();
         it != node.routing_entries.end(); ++it) {
      // The entry can only live in subtrees whose ball covers the object.
      if (metric_(it->object, object) > it->covering_radius) {
        continue;
      }
      if (!DeleteRecurse(it->child, object, oid)) {
        continue;
      }
      const Node child = store_->Read(it->child);
      if (child.NumEntries() == 0) {
        store_->Free(it->child);
        node.routing_entries.erase(it);
        store_->Write(id, node);
      }
      return true;
    }
    return false;
  }

  /// Shrinks the root after deletions: a single-child internal root is
  /// replaced by its child; an emptied root leaves the tree empty.
  void CollapseRoot() {
    while (root_ != kInvalidNodeId) {
      const Node root_node = store_->Read(root_);
      if (root_node.is_leaf) {
        if (root_node.leaf_entries.empty()) {
          store_->Free(root_);
          root_ = kInvalidNodeId;
          height_ = 0;
        }
        return;
      }
      if (root_node.routing_entries.size() != 1) {
        return;
      }
      const NodeId old_root = root_;
      root_ = root_node.routing_entries.front().child;
      store_->Free(old_root);
      --height_;
      // The new root's entries keep stale parent distances; they are never
      // consulted at the root (search passes "no parent" there).
    }
  }

  /// The M-tree's node reference on the shared best-first frontier: the
  /// node id plus d(Q, parent routing object) — NaN at the root — which
  /// feeds the stored-parent-distance filter in optimized pruning mode.
  struct TraversalHandle {
    NodeId node = kInvalidNodeId;
    double parent_query_distance = std::numeric_limits<double>::quiet_NaN();
  };

  /// Shared range/k-NN traversal over the engine driver. The collector
  /// supplies the pruning bound (fixed radius or shrinking r_k);
  /// `cut_reason` labels subtrees eliminated by the ball test
  /// d_min(Q, N) > bound (kCoveringRadius for range, kKnnBound for k-NN,
  /// matching the paper's two pruning lemmas).
  template <typename Collector>
  void Traverse(const Object& query, Collector& collector, QueryStats* st,
                PruneReason cut_reason) const {
    const bool optimized = options_.pruning == PruningMode::kOptimized;
    // Witness bounds engage only while the stored ancestor distances are
    // valid; capacity 0 makes every guarded call collapse to the plain
    // bounded evaluation, bit-identical to the pre-witness search.
    const int wcap = cascade_installed_ ? witness_capacity_ : 0;
    engine::BestFirstSearch<TraversalHandle>(
        TraversalHandle{root_, std::numeric_limits<double>::quiet_NaN()},
        /*root_trace_id=*/root_, collector, st,
        [&](const engine::FrontierEntry<TraversalHandle>& item,
            auto& frontier) {
          const auto node = store_->ReadShared(item.handle.node, st);
          ++st->nodes_accessed;
          const double pqd = item.handle.parent_query_distance;
          const bool can_prune = optimized && !std::isnan(pqd);
          uint32_t scanned = 0;
          uint32_t wavoided = 0;
          if (node->is_leaf) {
            {
              // One distance-eval span per node, not per entry: the clock
              // is read twice per accessed node, keeping obs-on overhead
              // proportional to I/O cost rather than CPU cost.
              ScopedSpan dist_span(st, QueryPhase::kDistanceEval);
              for (const auto& e : node->leaf_entries) {
                if (can_prune && std::fabs(pqd - e.parent_distance) >
                                     collector.Bound()) {
                  continue;
                }
                // Witness link `ref` is the 0-based depth of the witness
                // routing object: the parent (depth level-2) is served
                // from the stored parent distance, everything above it
                // from the entry's ancestor-distance array.
                auto stored = [&](uint64_t ref) {
                  if (item.level >= 2 && ref == item.level - 2) {
                    return engine::WitnessInterval::Point(e.parent_distance);
                  }
                  if (ref < e.ancestor_distances.size()) {
                    return engine::WitnessInterval::Point(
                        e.ancestor_distances[ref]);
                  }
                  return engine::WitnessInterval::Unknown();
                };
                // Early exit past the collector bound: an aborted (or
                // witness-avoided) evaluation returns +inf, which Offer
                // rejects exactly as it would the true distance.
                const uint64_t avoided_before =
                    st->distance_calcs_avoided_by_witness;
                const double d = engine::GuardedDistanceWithin(
                    item.witness, wcap, stored, metric_, query, e.object,
                    collector.Bound(), st);
                if (st->distance_calcs_avoided_by_witness !=
                    avoided_before) {
                  ++wavoided;
                  continue;
                }
                ++scanned;
                collector.Offer(e.oid, e.object, d);
              }
            }
            if (st->trace != nullptr) {
              st->trace->RecordVisit(
                  item.handle.node, item.level, scanned,
                  static_cast<uint32_t>(node->leaf_entries.size()) - scanned -
                      wavoided,
                  scanned, wavoided);
            }
            return;
          }
          // Children that survive the ball test, in entry order — the
          // readahead hint below. With bulk-loaded sequential layout these
          // are contiguous page runs.
          std::vector<NodeId> survivors;
          {
            ScopedSpan dist_span(st, QueryPhase::kDistanceEval);
            for (const auto& e : node->routing_entries) {
              if (can_prune && std::fabs(pqd - e.parent_distance) -
                                       e.covering_radius >
                                   collector.Bound()) {
                ++st->nodes_pruned;
                if (st->trace != nullptr) {
                  st->trace->RecordPrune(e.child, item.level + 1,
                                         PruneReason::kParentFilter);
                }
                continue;
              }
              auto stored = [&](uint64_t ref) {
                if (item.level >= 2 && ref == item.level - 2) {
                  return engine::WitnessInterval::Point(e.parent_distance);
                }
                if (ref < e.ancestor_distances.size()) {
                  return engine::WitnessInterval::Point(
                      e.ancestor_distances[ref]);
                }
                return engine::WitnessInterval::Unknown();
              };
              // A routing distance only matters when the child survives,
              // i.e. when dmin = d - r <= Bound(); beyond Bound() + r the
              // child is pruned either way, so the early exit changes
              // nothing — an aborted d gives dmin = +inf, pruned like its
              // exact value. A witness-avoided evaluation proves the same
              // inequality from stored distances alone, cutting the child
              // without touching the metric.
              const uint64_t avoided_before =
                  st->distance_calcs_avoided_by_witness;
              const double d = engine::GuardedDistanceWithin(
                  item.witness, wcap, stored, metric_, query, e.object,
                  collector.Bound() + e.covering_radius, st);
              if (st->distance_calcs_avoided_by_witness != avoided_before) {
                ++wavoided;
                ++st->nodes_pruned;
                if (st->trace != nullptr) {
                  st->trace->RecordPrune(e.child, item.level + 1,
                                         PruneReason::kWitness);
                }
                continue;
              }
              ++scanned;
              const double dmin = std::max(d - e.covering_radius, 0.0);
              if (dmin <= collector.Bound()) {
                survivors.push_back(e.child);
              }
              frontier.PushOrPrune(
                  dmin, item.level + 1, e.child, TraversalHandle{e.child, d},
                  cut_reason,
                  wcap > 0 ? item.witness.Extend(item.level - 1, d)
                           : engine::WitnessChain{});
            }
          }
          // Readahead: the surviving children will all be expanded (range
          // search) or considered in best-first order (k-NN); hint the
          // store so contiguous runs become one sequential read. Purely
          // physical — answers and logical counters never depend on it.
          store_->Prefetch(survivors.data(), survivors.size(), st);
          if (st->trace != nullptr) {
            st->trace->RecordVisit(
                item.handle.node, item.level, scanned,
                static_cast<uint32_t>(node->routing_entries.size()) -
                    scanned - wavoided,
                scanned, wavoided);
          }
        });
  }

  /// Inserts below `node_id` (whose routing object is `parent_object`, null
  /// at the root). Returns the two replacement entries when the node split.
  std::optional<SplitInfo> InsertRecursive(NodeId node_id,
                                           const Object* parent_object,
                                           const Object& object,
                                           uint64_t oid) {
    Node node = store_->Read(node_id);
    if (node.is_leaf) {
      LeafEntry<Object> entry;
      entry.object = object;
      entry.oid = oid;
      entry.parent_distance =
          parent_object ? metric_(*parent_object, object) : 0.0;
      node.leaf_entries.push_back(std::move(entry));
      if (node.SerializedSize() > options_.node_size_bytes &&
          node.NumEntries() >= 2) {
        return SplitNode(node_id, std::move(node));
      }
      store_->Write(node_id, node);
      return std::nullopt;
    }

    // Choose the subtree: prefer entries that need no radius enlargement
    // (min distance); otherwise min enlargement.
    size_t best = 0;
    double best_distance = std::numeric_limits<double>::infinity();
    bool best_contained = false;
    double best_enlargement = std::numeric_limits<double>::infinity();
    std::vector<double> distances(node.routing_entries.size());
    for (size_t i = 0; i < node.routing_entries.size(); ++i) {
      const auto& e = node.routing_entries[i];
      const double d = metric_(e.object, object);
      distances[i] = d;
      const bool contained = d <= e.covering_radius;
      if (contained) {
        if (!best_contained || d < best_distance) {
          best = i;
          best_distance = d;
          best_contained = true;
        }
      } else if (!best_contained) {
        const double enlargement = d - e.covering_radius;
        if (enlargement < best_enlargement) {
          best = i;
          best_enlargement = enlargement;
          best_distance = d;
        }
      }
    }
    auto& chosen = node.routing_entries[best];
    if (distances[best] > chosen.covering_radius) {
      chosen.covering_radius = distances[best];
    }
    auto child_split =
        InsertRecursive(chosen.child, &chosen.object, object, oid);
    if (!child_split.has_value()) {
      store_->Write(node_id, node);
      return std::nullopt;
    }

    // The child split: replace its entry with the two new ones.
    child_split->first.parent_distance =
        parent_object ? metric_(*parent_object, child_split->first.object)
                      : 0.0;
    child_split->second.parent_distance =
        parent_object ? metric_(*parent_object, child_split->second.object)
                      : 0.0;
    node.routing_entries.erase(node.routing_entries.begin() +
                               static_cast<ptrdiff_t>(best));
    node.routing_entries.push_back(std::move(child_split->first));
    node.routing_entries.push_back(std::move(child_split->second));
    if (node.SerializedSize() > options_.node_size_bytes &&
        node.NumEntries() >= 2) {
      return SplitNode(node_id, std::move(node));
    }
    store_->Write(node_id, node);
    return std::nullopt;
  }

  /// Splits `node` (which overflowed); the first half stays at `node_id`,
  /// the second goes to a fresh node. Returns the two parent entries.
  SplitInfo SplitNode(NodeId node_id, Node node) {
    if (!node.is_leaf) {
      // The moved routing entries now hang under newly promoted routing
      // objects, but every entry in their subtrees still stores its
      // distance to the old routing object at this depth, so witness
      // bounds could prune subtrees holding answers. A leaf has no
      // subtree, so leaf splits keep the cascade.
      cascade_installed_ = false;
    }
    std::vector<const Object*> objects;
    std::vector<double> radii;
    const size_t count = node.NumEntries();
    objects.reserve(count);
    radii.reserve(count);
    if (node.is_leaf) {
      for (const auto& e : node.leaf_entries) {
        objects.push_back(&e.object);
        radii.push_back(0.0);
      }
    } else {
      for (const auto& e : node.routing_entries) {
        objects.push_back(&e.object);
        radii.push_back(e.covering_radius);
      }
    }
    NodeSplitter<Object, Metric> splitter(objects, radii, metric_);
    const SplitOutcome outcome =
        splitter.Split(options_.promote_policy, options_.partition_policy,
                       options_.promote_samples, rng_);

    Node first, second;
    first.is_leaf = second.is_leaf = node.is_leaf;
    auto fill = [&](Node* dst, const std::vector<size_t>& group,
                    const std::vector<double>& dist_to_center) {
      for (size_t g = 0; g < group.size(); ++g) {
        const size_t i = group[g];
        if (node.is_leaf) {
          LeafEntry<Object> e = node.leaf_entries[i];
          e.parent_distance = dist_to_center[g];
          dst->leaf_entries.push_back(std::move(e));
        } else {
          RoutingEntry<Object> e = node.routing_entries[i];
          e.parent_distance = dist_to_center[g];
          dst->routing_entries.push_back(std::move(e));
        }
      }
    };
    fill(&first, outcome.first_group, outcome.first_distances);
    fill(&second, outcome.second_group, outcome.second_distances);

    const NodeId second_id = store_->Allocate();
    store_->Write(node_id, first);
    store_->Write(second_id, second);

    SplitInfo info;
    info.first.object = *objects[outcome.promoted_first];
    info.first.covering_radius = outcome.first_radius;
    info.first.child = node_id;
    info.second.object = *objects[outcome.promoted_second];
    info.second.covering_radius = outcome.second_radius;
    info.second.child = second_id;
    return info;
  }

  Metric metric_;
  MTreeOptions options_;
  mutable std::unique_ptr<NodeStore<Traits>> store_;
  NodeId root_ = kInvalidNodeId;
  size_t num_objects_ = 0;
  uint32_t height_ = 0;
  int witness_capacity_ = 0;
  bool cascade_installed_ = false;
  std::function<void(const MTree&)> post_modify_hook_;
  RandomEngine rng_;
};

}  // namespace mcm

#endif  // MCM_MTREE_MTREE_H_
