// Shared plumbing of the benchmark driver: command-line arguments, the
// latency recorder, the result sink that prints named metrics, the layer
// tally, and the benchmark-side wrappers the traced run builds its index
// with (a timed metric functor and a timed NodeStore decorator).
//
// The untraced run uses none of the wrappers: it instantiates the index
// over the plain metric and the plain PagedNodeStore, exactly as a user
// would. The traced run swaps in the wrappers and reads the same exact
// counters, so a difference in any counter between the two runs means a
// wrapper changed the code path.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mcm/common/clock.h"
#include "mcm/common/query_stats.h"
#include "mcm/engine/search_core.h"
#include "mcm/metric/vector_metrics.h"
#include "mcm/metric/bounded.h"
#include "mcm/mtree/node_store.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Scratch directory for page and spill files.
};

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(mcm::MonotonicNanos() - start_ns) * 1e-9;
}

/// Median of `v` (the mean of the middle two for an even count).
double Median(std::vector<double> v);

/// Latency samples of one operation type, in microseconds.
class Samples {
 public:
  void Add(double us) { us_.push_back(us); }
  size_t count() const { return us_.size(); }
  double Sum() const;
  /// Nearest-rank quantile (0 when empty).
  double Quantile(double q) const;

 private:
  std::vector<double> us_;
};

/// Per-thread counters filled by the traced wrappers. Each thread that
/// touches a wrapper gets its own tally (no atomics on the measured path);
/// an operation's layer times are the difference of its thread's tally
/// before and after the call.
struct LayerTally {
  uint64_t metric_calls = 0;
  uint64_t metric_ns = 0;
  uint64_t read_calls = 0;
  uint64_t read_ns = 0;
  uint64_t write_calls = 0;
  uint64_t write_ns = 0;
  uint64_t alloc_calls = 0;
  uint64_t alloc_ns = 0;
  uint64_t file_reads = 0;  ///< Physical page-file read operations.
  uint64_t file_read_ns = 0;

  LayerTally& operator+=(const LayerTally& o);
  LayerTally operator-(const LayerTally& o) const;
};

/// The calling thread's tally.
LayerTally& ThreadTally();

/// Sum over every thread's tally, including threads that have exited.
/// Call only while no other thread is touching a wrapper.
LayerTally AllThreadsTally();

/// Whether the timed metric reads the clock. Off during traced builds,
/// which only need the call count (a build makes ~150 calls per object);
/// on for the traced check pass and window. Flip it only while no query
/// or build is running.
void SetMetricTiming(bool on);
bool MetricTiming();

/// Nanoseconds a clock read adds to the interval it closes: the median gap
/// between back-to-back reads, measured once.
uint64_t ClockReadNs();

/// Metric functor wrapper for the traced run: counts every evaluation into
/// the thread's tally and, while metric timing is on, times every
/// kSampleEvery-th call (less the clock's own cost) and charges it
/// kSampleEvery times. A vector distance costs less than a clock read, so
/// timing every call would mostly measure the clock. Forwards both the
/// plain call and the bounded protocol, so the early-exit path the index
/// takes with the plain metric is the one it takes here.
template <typename Metric>
class TimedMetric {
 public:
  static constexpr uint64_t kSampleEvery = 16;

  explicit TimedMetric(Metric inner = Metric()) : inner_(std::move(inner)) {}

  template <typename T>
  double operator()(const T& a, const T& b) const {
    return Call([&] { return inner_(a, b); });
  }

  template <typename T>
  double DistanceWithin(const T& a, const T& b, double bound) const {
    return Call([&] { return mcm::BoundedDistance(inner_, a, b, bound); });
  }

 private:
  template <typename Fn>
  static double Call(const Fn& fn) {
    LayerTally& t = ThreadTally();
    if (++t.metric_calls % kSampleEvery != 0 || !MetricTiming()) return fn();
    const uint64_t start = mcm::MonotonicNanos();
    const double d = fn();
    const uint64_t elapsed = mcm::MonotonicNanos() - start;
    const uint64_t clock = ClockReadNs();
    t.metric_ns += (elapsed > clock ? elapsed - clock : 0) * kSampleEvery;
    return d;
  }

  Metric inner_;
};

/// NodeStore decorator for the traced run: owns the real store and times
/// node reads, writes and allocations into the thread's tally, exclusive
/// of the page-file reads beneath them. Every call is forwarded unchanged,
/// so answers and counters match the bare store's.
template <typename Traits, typename Inner>
class TimedStore final : public mcm::NodeStore<Traits> {
 public:
  using Node = mcm::MTreeNode<Traits>;

  explicit TimedStore(std::unique_ptr<Inner> inner)
      : inner_(std::move(inner)) {}

  mcm::NodeId Allocate() override {
    const Clock c;
    const mcm::NodeId id = inner_->Allocate();
    c.Charge(&LayerTally::alloc_ns, &LayerTally::alloc_calls);
    return id;
  }

  void Free(mcm::NodeId id) override { inner_->Free(id); }

  Node Read(mcm::NodeId id) override {
    this->CountAccess();
    const Clock c;
    Node node = inner_->Read(id);
    c.Charge(&LayerTally::read_ns, &LayerTally::read_calls);
    return node;
  }

  Node ReadTracked(mcm::NodeId id, mcm::QueryStats* st) override {
    this->CountAccess();
    const Clock c;
    Node node = inner_->ReadTracked(id, st);
    c.Charge(&LayerTally::read_ns, &LayerTally::read_calls);
    return node;
  }

  std::shared_ptr<const Node> ReadShared(mcm::NodeId id,
                                         mcm::QueryStats* st) override {
    this->CountAccess();
    const Clock c;
    auto node = inner_->ReadShared(id, st);
    c.Charge(&LayerTally::read_ns, &LayerTally::read_calls);
    return node;
  }

  void Prefetch(const mcm::NodeId* ids, size_t count,
                mcm::QueryStats* st) override {
    inner_->Prefetch(ids, count, st);
  }

  void Write(mcm::NodeId id, const Node& node) override {
    const Clock c;
    inner_->Write(id, node);
    c.Charge(&LayerTally::write_ns, &LayerTally::write_calls);
  }

  size_t NumNodes() const override { return inner_->NumNodes(); }

 private:
  /// Times one forwarded call and charges it exclusive of the page-file
  /// reads it triggered (those are charged to file_read_ns already).
  class Clock {
   public:
    Clock()
        : start_(mcm::MonotonicNanos()),
          file_ns_(ThreadTally().file_read_ns) {}
    void Charge(uint64_t LayerTally::*ns, uint64_t LayerTally::*calls) const {
      LayerTally& t = ThreadTally();
      t.*ns += mcm::MonotonicNanos() - start_ - (t.file_read_ns - file_ns_);
      ++(t.*calls);
    }

   private:
    uint64_t start_;
    uint64_t file_ns_;
  };

  std::unique_ptr<Inner> inner_;
};

/// Page-file subclass for the traced run: times the physical reads. The
/// library's own PageFileStats::read_ns is filled only under MCM_OBS=1,
/// which the benchmark keeps at its default (off).
template <typename Base>
class TimedPageFile final : public Base {
 public:
  using Base::Base;

 protected:
  void DoRead(mcm::PageId id, uint8_t* out) override {
    const uint64_t start = mcm::MonotonicNanos();
    Base::DoRead(id, out);
    Charge(start);
  }

  void DoReadRun(mcm::PageId first, size_t count, uint8_t* out) override {
    const uint64_t start = mcm::MonotonicNanos();
    const uint64_t nested = ThreadTally().file_read_ns;
    Base::DoReadRun(first, count, out);
    // A base run implemented as single reads already charged them.
    ThreadTally().file_read_ns = nested;
    Charge(start);
  }

 private:
  static void Charge(uint64_t start) {
    LayerTally& t = ThreadTally();
    t.file_read_ns += mcm::MonotonicNanos() - start;
    ++t.file_reads;
  }
};

/// True when both answer lists hold the same oids at bit-identical
/// distances, in the same order.
template <typename Object>
bool SameAnswers(const std::vector<mcm::SearchResult<Object>>& a,
                 const std::vector<mcm::SearchResult<Object>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].oid != b[i].oid || a[i].distance != b[i].distance) return false;
  }
  return true;
}

/// The exact counters of a workload: they depend only on the seed, so they
/// must repeat bit for bit from run to run and between the untraced and
/// traced runs. Kept as name -> value so mismatches can be named.
using ExactCounters = std::map<std::string, uint64_t>;

/// Prints the names of counters that differ; returns true when equal.
bool CompareExact(const ExactCounters& want, const ExactCounters& got,
                  const char* what);

/// Self times of one operation type in a traced window (nanoseconds, summed
/// over its operations) plus the untraced mean for the overhead column.
struct OpLayers {
  uint64_t ops = 0;
  uint64_t wall_ns = 0;  ///< Traced op wall, excluding replica plan calls.
  std::vector<std::pair<std::string, uint64_t>> layers;  ///< Self ns.
  std::string remainder_name;  ///< Layer the non-negative rest belongs to.
  double untraced_mean_us = 0.0;

  void AddLayer(const std::string& name, uint64_t ns);
  /// op wall minus the named layers (may be negative if attribution broke).
  double RemainderNs() const;
};

/// Collects results and prints the human report plus the final JSON line.
class Sink {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Prints a latency distribution with its sample counts.
  void Latency(const std::string& op, const Samples& s);
  /// Prints the exclusive self-time table of one operation type.
  void LayerTable(const std::string& workload, const std::string& op,
                  const OpLayers& l);
  /// Prints a comment line stamped with the seconds since the run began.
  void Note(const std::string& line);
  void Fail(const std::string& why);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  /// Prints the final JSON object (must be the last stdout line).
  void Finish();

 private:
  uint64_t start_ns_ = mcm::MonotonicNanos();
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Emits every per-layer metric of the traced run, in a fixed order, from
/// `values`; layers a workload bypasses report 0. A name in `values` that
/// is not a per-layer metric fails the run (a typo would otherwise vanish).
void EmitPerLayer(Sink& sink, const std::map<std::string, double>& values);

/// Every workload indexes the same dataset in every run: seed-to-seed
/// differences in the data (cluster geometry, vocabulary) moved query
/// costs by more than the run-to-run noise. The --seed picks the queries.
inline constexpr uint64_t kDatasetSeed = 42;

/// The vector workloads' inputs: 1M clustered vectors (dim 8) and a window
/// of a 65536-query pool drawn under the biased query model with the
/// dataset's seed, so the queries share its cluster centres.
struct VectorInputs {
  std::vector<mcm::FloatVector> objects;
  std::vector<mcm::FloatVector> queries;
};
VectorInputs MakeVectorInputs(uint64_t seed, size_t num_queries);

/// Peak resident set of this process (VmHWM) in MiB.
double PeakRssMb();

/// Prints the host/toolchain line every run starts with.
void PrintEnvironment(const Args& args);

int RunVecPaged(const Args& args, Sink& sink);
int RunVecShard(const Args& args, Sink& sink);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
