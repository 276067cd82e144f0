// The vec-paged workload: 1M clustered L2 vectors (dim 8) stream-bulk-
// loaded into a PagedNodeStore over a StdioPageFile with a 512-frame pool,
// far smaller than the index, and the witness cascade installed. One
// closed-loop client alternates range and k-NN. The pool is flushed once at
// the end of set-up. Answers are checked against the linear-scan oracle
// outside the timed window.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "mcm/baseline/linear_scan.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/bulk_stream.h"
#include "mcm/mtree/mtree.h"
#include "mcm/shard/sharded_index.h"
#include "mcm/storage/io_stats.h"

namespace perfbench {
namespace {

enum class Op { kRange = 0, kKnn = 1 };
constexpr size_t kNumOps = 2;
const char* const kOpNames[kNumOps] = {"range", "knn"};

struct VecSpec {
  using Object = mcm::FloatVector;
  using Metric = mcm::L2Distance;
  template <typename M>
  using Traits = mcm::VectorTraits<M>;
  static size_t RawBytes(const Object& o) { return o.size() * sizeof(float); }
};

/// Inputs and shape of one workload (everything generated from the seed).
template <typename Object>
struct Workload {
  std::string name;
  std::vector<Object> initial;  ///< Bulk-loaded at set-up; oid = position.
  std::vector<Object> queries;
  std::vector<Op> cycle;        ///< The client's repeating operation mix.
  size_t k = 10;
  size_t check_cycles = 0;      ///< Cycles in the exact-counter check pass.
  size_t warmup_cycles = 0;
  size_t sample_every = 0;      ///< Oracle-check every Nth window query.
  size_t setups = 3;            ///< Set-ups per untraced run (median).
  size_t pool_frames = 0;
  int64_t ingest_budget = -1;   ///< StreamBulkLoader budget in bytes.
};

/// One built index plus its set-up phase times.
template <typename Traits>
struct Built {
  std::unique_ptr<mcm::MTree<Traits>> tree;
  mcm::PagedNodeStore<Traits>* paged = nullptr;  // Owned by the tree.
  double histogram_s = 0, load_s = 0, cascade_s = 0, flush_s = 0;
  double total_s = 0;
  double radius = 0;
  double target_results = 0;  ///< Expected mean range result count.
  uint64_t build_dists = 0;
};

/// Set-up: distance distribution (radius), load, witness cascade, flush.
template <typename Spec, typename Traits, bool kTraced>
Built<Traits> Setup(const Workload<typename Spec::Object>& w,
                    const Args& args) {
  using Paged = mcm::PagedNodeStore<Traits>;
  using Metric = typename Traits::Metric;
  Built<Traits> b;
  const uint64_t start = mcm::MonotonicNanos();

  // F̂ over the loaded set sets the range radius: F̂⁻¹(10/n).
  const double n = static_cast<double>(w.initial.size());
  mcm::EstimatorOptions est;
  est.seed = kDatasetSeed;
  est.d_plus = mcm::shard::DeriveDPlusSample(w.initial, Metric());
  est.num_bins = 10000;
  est.max_pairs = 2000000;
  const auto f = mcm::EstimateDistanceDistribution(w.initial, Metric(), est);
  b.radius = f.Quantile(10.0 / n);
  b.target_results = 10.0;
  b.histogram_s = SecondsSince(start);

  uint64_t t = mcm::MonotonicNanos();
  mcm::MTreeOptions options;
  options.build_threads = 4;
  std::unique_ptr<mcm::PageFile> file;
  const std::string path = args.work_dir + "/" + w.name + ".pages";
  const size_t page = options.node_size_bytes;
  if constexpr (kTraced) {
    file = std::make_unique<TimedPageFile<mcm::StdioPageFile>>(path, page);
  } else {
    file = std::make_unique<mcm::StdioPageFile>(path, page);
  }
  auto paged = std::make_unique<Paged>(std::move(file), w.pool_frames);
  b.paged = paged.get();
  std::unique_ptr<mcm::NodeStore<Traits>> store;
  if constexpr (kTraced) {
    store = std::make_unique<TimedStore<Traits, Paged>>(std::move(paged));
  } else {
    store = std::move(paged);
  }
  mcm::BulkLoadStats stats;
  mcm::VectorObjectSource<Traits> source(w.initial);
  b.tree = std::make_unique<mcm::MTree<Traits>>(
      mcm::StreamBulkLoader<Traits>::Load(source, Metric(), options,
                                          std::move(store), args.work_dir,
                                          w.ingest_budget, &stats));
  b.build_dists = stats.distance_computations;
  b.load_s = SecondsSince(t);

  t = mcm::MonotonicNanos();
  b.tree->InstallWitnessCascade();
  b.cascade_s = SecondsSince(t);

  t = mcm::MonotonicNanos();
  b.paged->Flush();
  b.flush_s = SecondsSince(t);
  b.total_s = SecondsSince(start);
  return b;
}

/// A window answer kept for the oracle check.
template <typename Object>
struct Sample {
  Op op;
  size_t query;
  std::vector<mcm::SearchResult<Object>> answers;
};

/// Per-operation-type accumulators.
struct PerOp {
  Samples latency;
  uint64_t ops = 0;
  uint64_t wall_ns = 0;
  mcm::QueryStats stats;  ///< Summed query counters.
  uint64_t results = 0;
  LayerTally tally;        ///< Traced wrappers' layer times and counts.
};

/// The closed-loop client: walks the workload's cycle, one op at a time.
template <typename Spec, typename Traits, bool kTraced>
class Client {
 public:
  using Object = typename Spec::Object;

  Client(Built<Traits>& b, const Workload<Object>& w) : b_(b), w_(w) {}

  /// Runs one operation of the cycle; `record` adds it to the accumulators
  /// (warm-up operations are not recorded).
  void Step(bool record) {
    const Op op = w_.cycle[step_++ % w_.cycle.size()];
    PerOp& acc = per_[static_cast<size_t>(op)];
    LayerTally t0;
    if constexpr (kTraced) t0 = ThreadTally();
    mcm::QueryStats st;
    std::vector<mcm::SearchResult<Object>> answers;
    const size_t query = query_pos_++ % w_.queries.size();
    const uint64_t start = mcm::MonotonicNanos();
    try {
      answers = op == Op::kRange
                    ? b_.tree->RangeSearch(w_.queries[query], b_.radius, &st)
                    : b_.tree->KnnSearch(w_.queries[query], w_.k, &st);
    } catch (const std::exception& e) {
      ++failed_;
      std::cout << "# op failed: " << e.what() << "\n";
    }
    const uint64_t ns = mcm::MonotonicNanos() - start;
    ++attempted_;
    if (!record) return;
    ++acc.ops;
    acc.wall_ns += ns;
    acc.latency.Add(static_cast<double>(ns) * 1e-3);
    acc.stats += st;
    if (op == Op::kRange) acc.results += answers.size();
    if constexpr (kTraced) acc.tally += ThreadTally() - t0;
    if (keep_every_ > 0 && (queries_recorded_++ % keep_every_) == 0) {
      samples_.push_back({op, query, std::move(answers)});
    }
  }

  void set_keep_every(size_t n) { keep_every_ = n; }
  void ResetAccumulators() {
    for (PerOp& p : per_) p = PerOp();
  }
  const PerOp& per(Op op) const { return per_[static_cast<size_t>(op)]; }
  std::vector<Sample<Object>>& samples() { return samples_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t QueryOps() const {
    return per(Op::kRange).ops + per(Op::kKnn).ops;
  }

 private:
  Built<Traits>& b_;
  const Workload<Object>& w_;
  size_t step_ = 0;
  size_t query_pos_ = 0;
  size_t keep_every_ = 0;
  size_t queries_recorded_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  PerOp per_[kNumOps];
  std::vector<Sample<Object>> samples_;
};

/// Build counters that must not depend on scheduling.
template <typename Traits>
ExactCounters BuildCounters(const Built<Traits>& b) {
  return {{"build.dists", b.build_dists},
          {"build.pages", b.paged->file().num_pages()},
          {"build.nodes", b.paged->NumNodes()},
          {"build.height", b.tree->height()}};
}

/// The check pass: a fixed number of cycles from a fixed pool state, every
/// answer kept for the oracle. Its counters are the workload's exact ones.
template <typename Spec, typename Traits, bool kTraced>
ExactCounters CheckPass(Built<Traits>& b, Client<Spec, Traits, kTraced>& c,
                        const Workload<typename Spec::Object>& w) {
  b.paged->pool().EvictAll();
  const mcm::IoStatsSnapshot io0 = mcm::CaptureIoStats(b.paged->pool());
  c.set_keep_every(1);
  for (size_t i = 0; i < w.check_cycles * w.cycle.size(); ++i) c.Step(true);
  c.set_keep_every(0);
  const mcm::IoStatsSnapshot io = mcm::CaptureIoStats(b.paged->pool()) - io0;
  ExactCounters e = BuildCounters(b);
  for (size_t o = 0; o < kNumOps; ++o) {
    const PerOp& p = c.per(static_cast<Op>(o));
    const std::string n = kOpNames[o];
    e[n + ".ops"] = p.ops;
    e[n + ".nodes"] = p.stats.nodes_accessed;
    e[n + ".dists"] = p.stats.distance_computations;
    e[n + ".pruned"] = p.stats.nodes_pruned;
    e[n + ".witness_avoided"] = p.stats.distance_calcs_avoided_by_witness;
    e[n + ".pool_hits"] = p.stats.buffer_hits;
    e[n + ".pool_misses"] = p.stats.buffer_misses;
  }
  e["range.results"] = c.per(Op::kRange).results;
  e["io.fetches"] = io.pool.fetches;
  e["io.hits"] = io.pool.hits;
  e["io.misses"] = io.pool.misses;
  e["io.evictions"] = io.pool.evictions;
  e["io.file_reads"] = io.file.reads;
  e["io.file_writes"] = io.file.writes;
  e["io.file_allocations"] = io.file.allocations;
  e["index.pages"] = b.paged->file().num_pages();
  return e;
}

/// Checks kept answers against the linear scan.
template <typename Spec>
uint64_t OracleCheck(const Workload<typename Spec::Object>& w,
                     const std::vector<Sample<typename Spec::Object>>& kept,
                     double radius, Sink& sink, const char* what) {
  using Plain = typename Spec::template Traits<typename Spec::Metric>;
  uint64_t mismatches = 0;
  const mcm::LinearScan<Plain> oracle(w.initial, typename Spec::Metric());
  for (const auto& s : kept) {
    const auto want = s.op == Op::kRange
                          ? oracle.RangeSearch(w.queries[s.query], radius)
                          : oracle.KnnSearch(w.queries[s.query], w.k);
    if (!SameAnswers(want, s.answers)) {
      ++mismatches;
      std::cout << "# mismatch " << kOpNames[static_cast<size_t>(s.op)]
                << " query " << s.query << ": " << s.answers.size()
                << " answers, oracle "
                << want.size() << "\n";
    }
  }
  sink.Note(std::string(what) + ": " + std::to_string(kept.size()) +
            " answers checked against the linear scan, " +
            std::to_string(mismatches) + " mismatches");
  if (mismatches > 0) sink.Fail(std::string(what) + ": wrong answers");
  return mismatches;
}

template <typename Spec>
uint64_t RawBytes(const Workload<typename Spec::Object>& w) {
  uint64_t bytes = 0;
  for (const auto& o : w.initial) bytes += Spec::RawBytes(o);
  return bytes;
}

/// Runs the client for `seconds` after a warm-up; returns the wall time.
template <typename Client>
double Window(Client& c, size_t warmup_steps, size_t keep_every,
              double seconds) {
  for (size_t i = 0; i < warmup_steps; ++i) c.Step(false);
  c.ResetAccumulators();
  c.set_keep_every(keep_every);
  const uint64_t start = mcm::MonotonicNanos();
  double elapsed = 0;
  while (elapsed < seconds) {
    c.Step(true);
    elapsed = SecondsSince(start);
  }
  c.set_keep_every(0);
  return elapsed;
}

template <typename Spec>
int RunPaged(const Workload<typename Spec::Object>& w, const Args& args,
             Sink& sink) {
  using Metric = typename Spec::Metric;
  using Plain = typename Spec::template Traits<Metric>;
  using Traced = typename Spec::template Traits<TimedMetric<Metric>>;
  const size_t warmup_steps = w.warmup_cycles * w.cycle.size();

  if (!args.trace) {
    // Several set-ups (median reported); build counters must agree.
    std::vector<double> setup_s;
    ExactCounters first;
    Built<Plain> b;
    for (size_t i = 0; i < w.setups; ++i) {
      b = Built<Plain>();  // Release the previous index (and its file).
      b = Setup<Spec, Plain, false>(w, args);
      setup_s.push_back(b.total_s);
      sink.Note("setup " + std::to_string(i) + ": " +
                std::to_string(b.total_s) + " s (histogram " +
                std::to_string(b.histogram_s) + ", load " +
                std::to_string(b.load_s) + ", cascade " +
                std::to_string(b.cascade_s) + ", flush " +
                std::to_string(b.flush_s) + ")");
      if (i == 0) {
        first = BuildCounters(b);
      } else if (!CompareExact(first, BuildCounters(b), "repeated set-up")) {
        sink.Fail("set-up is not deterministic");
      }
    }
    Client<Spec, Plain, false> c(b, w);
    const ExactCounters exact = CheckPass(b, c, w);
    const uint64_t raw = RawBytes<Spec>(w);
    const double space_amp =
        static_cast<double>(b.paged->file().num_pages() *
                            b.paged->file().page_size()) /
        static_cast<double>(raw);
    uint64_t hash = 1469598103934665603ull;
    for (const auto& [name, v] : exact) {
      sink.Note("exact " + name + " = " + std::to_string(v));
      hash = (hash ^ v) * 1099511628211ull;
    }
    sink.Note("exact-counter fingerprint " + std::to_string(hash));
    uint64_t failed = OracleCheck<Spec>(w, c.samples(), b.radius, sink,
                                        "check pass");
    c.samples().clear();

    const double wall = Window(c, warmup_steps, w.sample_every, args.seconds);
    failed += OracleCheck<Spec>(w, c.samples(), b.radius, sink, "window");
    // Guards against queries drawn away from the data (a query seed that
    // is not the dataset's): the window's range queries must return about
    // the expected number of results.
    const double mean_results =
        static_cast<double>(c.per(Op::kRange).results) /
        static_cast<double>(std::max<uint64_t>(1, c.per(Op::kRange).ops));
    sink.Note("range radius " + std::to_string(b.radius) +
              ", mean results " + std::to_string(mean_results) +
              " (target " + std::to_string(b.target_results) + ")");
    if (!(mean_results >= b.target_results / 3.0 &&
          mean_results <= b.target_results * 3.0)) {
      sink.Fail("mean range result count is off its target");
    }
    const uint64_t ops = c.QueryOps();
    for (size_t o = 0; o < kNumOps; ++o) {
      if (c.per(static_cast<Op>(o)).ops) {
        sink.Latency(kOpNames[o], c.per(static_cast<Op>(o)).latency);
      }
    }
    sink.attempted = c.attempted();
    sink.failed = c.failed() + failed;
    sink.Metric("range_p50_us", c.per(Op::kRange).latency.Quantile(0.5), "us");
    sink.Metric("range_p95_us", c.per(Op::kRange).latency.Quantile(0.95), "us");
    sink.Metric("knn_p50_us", c.per(Op::kKnn).latency.Quantile(0.5), "us");
    sink.Metric("knn_p95_us", c.per(Op::kKnn).latency.Quantile(0.95), "us");
    sink.Metric("ops_per_s", static_cast<double>(ops) / wall, "1/s");
    sink.Metric("setup_s", Median(setup_s), "s");
    sink.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    sink.Metric("space_amp", space_amp, "ratio");
    return 0;
  }

  // Traced run. First the plain index: exact counters and an untraced
  // half-window for the overhead column.
  const double half = args.seconds / 2.0;
  ExactCounters plain_exact;
  double untraced_mean_us[kNumOps] = {};
  std::map<std::string, double> m;
  uint64_t failed = 0;
  uint64_t attempted = 0;
  {
    Built<Plain> b = Setup<Spec, Plain, false>(w, args);
    m["build.histogram_s"] = b.histogram_s;
    m["build.load_s"] = b.load_s;
    m["build.cascade_s"] = b.cascade_s;
    m["build.flush_s"] = b.flush_s;
    m["build.dists_per_obj"] = static_cast<double>(b.build_dists) /
                               static_cast<double>(w.initial.size());
    Client<Spec, Plain, false> c(b, w);
    plain_exact = CheckPass(b, c, w);
    failed += OracleCheck<Spec>(w, c.samples(), b.radius, sink, "check pass");
    c.samples().clear();
    Window(c, warmup_steps, w.sample_every, half);
    failed += OracleCheck<Spec>(w, c.samples(), b.radius, sink,
                                "untraced window");
    for (size_t o = 0; o < kNumOps; ++o) {
      const PerOp& p = c.per(static_cast<Op>(o));
      if (p.ops) untraced_mean_us[o] = p.latency.Sum() / p.ops;
    }
    attempted += c.attempted();
    failed += c.failed();
  }

  SetMetricTiming(false);
  Built<Traced> b = Setup<Spec, Traced, true>(w, args);
  SetMetricTiming(true);
  Client<Spec, Traced, true> c(b, w);
  const ExactCounters traced_exact = CheckPass(b, c, w);
  if (!CompareExact(plain_exact, traced_exact, "untraced vs traced")) {
    sink.Fail("the traced wrappers changed the exact counters");
  }
  failed += OracleCheck<Spec>(w, c.samples(), b.radius, sink, "traced check");
  c.samples().clear();

  // Exact per-layer counts from the traced check pass.
  const PerOp& cr = c.per(Op::kRange);
  const PerOp& ck = c.per(Op::kKnn);
  const double qops = static_cast<double>(cr.ops + ck.ops);
  mcm::QueryStats qs = cr.stats;
  qs += ck.stats;
  const double fetches = static_cast<double>(qs.buffer_hits + qs.buffer_misses);
  m["storage.hit_rate"] = fetches > 0 ? qs.buffer_hits / fetches : 0.0;
  m["storage.phys_reads_per_op"] =
      static_cast<double>(traced_exact.at("io.file_reads")) / qops;
  m["storage.evictions_per_op"] =
      static_cast<double>(traced_exact.at("io.evictions")) / qops;
  m["mtree.nodes_per_op"] = qs.nodes_accessed / qops;
  m["mtree.pruned_per_op"] = qs.nodes_pruned / qops;
  m["metric.dists_per_op"] = qs.distance_computations / qops;
  m["engine.witness_avoided_per_op"] =
      qs.distance_calcs_avoided_by_witness / qops;

  const double wall = Window(c, warmup_steps, w.sample_every, half);
  failed += OracleCheck<Spec>(w, c.samples(), b.radius, sink,
                              "traced window");
  attempted += c.attempted();
  failed += c.failed();

  // Exclusive self times per op type.
  double traced_ns = 0, untraced_ns = 0;
  for (size_t o = 0; o < kNumOps; ++o) {
    const PerOp& p = c.per(static_cast<Op>(o));
    if (p.ops == 0) continue;
    OpLayers l;
    l.ops = p.ops;
    l.wall_ns = p.wall_ns;
    l.untraced_mean_us = untraced_mean_us[o];
    l.AddLayer("metric", p.tally.metric_ns);
    l.AddLayer("storage.page_file_read", p.tally.file_read_ns);
    l.AddLayer("storage.pool+decode", p.tally.read_ns);
    l.remainder_name = "mtree.traverse";
    sink.LayerTable(w.name, kOpNames[o], l);
    traced_ns += static_cast<double>(p.wall_ns);
    untraced_ns += untraced_mean_us[o] * 1e3 * static_cast<double>(p.ops);
  }
  std::cout << "\n";
  const PerOp& wr = c.per(Op::kRange);
  const PerOp& wk = c.per(Op::kKnn);
  const double wops = static_cast<double>(wr.ops + wk.ops);
  LayerTally qt = wr.tally;
  qt += wk.tally;
  const double phys_ns = static_cast<double>(qt.file_read_ns);
  const double qwall_ns = static_cast<double>(wr.wall_ns + wk.wall_ns);
  m["storage.read_us_per_op"] = phys_ns / wops * 1e-3;
  m["storage.node_read_us_per_op"] = (qt.read_ns + phys_ns) / wops * 1e-3;
  m["storage.decode_self_us_per_op"] = qt.read_ns / wops * 1e-3;
  m["mtree.traverse_self_us_per_op"] =
      (qwall_ns - phys_ns - static_cast<double>(qt.read_ns + qt.metric_ns)) /
      wops * 1e-3;
  m["metric.us_per_op"] = qt.metric_ns / wops * 1e-3;
  m["metric.ns_per_call"] =
      qt.metric_calls ? static_cast<double>(qt.metric_ns) / qt.metric_calls : 0;
  m["engine.worker_busy_frac"] = traced_ns / (wall * 1e9);
  m["trace.overhead_frac"] = untraced_ns > 0 ? traced_ns / untraced_ns - 1 : 0;
  sink.attempted = attempted;
  sink.failed = failed;
  EmitPerLayer(sink, m);
  return 0;
}

}  // namespace

int RunVecPaged(const Args& args, Sink& sink) {
  Workload<mcm::FloatVector> w;
  w.name = "vec-paged";
  VectorInputs in = MakeVectorInputs(args.seed, 4096);
  w.initial = std::move(in.objects);
  w.queries = std::move(in.queries);
  w.cycle = {Op::kRange, Op::kKnn};
  w.check_cycles = 32;
  w.warmup_cycles = 32;
  w.sample_every = 32;
  w.pool_frames = 512;
  w.ingest_budget = static_cast<int64_t>(
      w.initial.size() *
      VecSpec::Traits<VecSpec::Metric>::SerializedSize(w.initial[0]) / 4);
  sink.Note("page-file reads are served by the OS page cache: latencies are "
            "this host's, not a storage device's");
  return RunPaged<VecSpec>(w, args, sink);
}

}  // namespace perfbench
