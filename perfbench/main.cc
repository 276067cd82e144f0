// Benchmark driver entry point:
//
//   mcm_perfbench --workload <vec-paged|vec-shard> --seed <n> --seconds <s>
//                 --trace <0|1> --work-dir <dir>
//
// Prints a human-readable report and, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured with no wrappers installed;
// with --trace 1 they are the per-layer ones from the traced run.
// perfbench/run.py builds this program and is the command to use.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common.h"
#include "mcm/common/random.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/metric/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::Sum() const {
  double s = 0.0;
  for (double v : us_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (us_.empty()) return 0.0;
  std::vector<double> sorted = us_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

LayerTally& LayerTally::operator+=(const LayerTally& o) {
  metric_calls += o.metric_calls;
  metric_ns += o.metric_ns;
  read_calls += o.read_calls;
  read_ns += o.read_ns;
  write_calls += o.write_calls;
  write_ns += o.write_ns;
  alloc_calls += o.alloc_calls;
  alloc_ns += o.alloc_ns;
  file_reads += o.file_reads;
  file_read_ns += o.file_read_ns;
  return *this;
}

LayerTally LayerTally::operator-(const LayerTally& o) const {
  LayerTally d;
  d.metric_calls = metric_calls - o.metric_calls;
  d.metric_ns = metric_ns - o.metric_ns;
  d.read_calls = read_calls - o.read_calls;
  d.read_ns = read_ns - o.read_ns;
  d.write_calls = write_calls - o.write_calls;
  d.write_ns = write_ns - o.write_ns;
  d.alloc_calls = alloc_calls - o.alloc_calls;
  d.alloc_ns = alloc_ns - o.alloc_ns;
  d.file_reads = file_reads - o.file_reads;
  d.file_read_ns = file_read_ns - o.file_read_ns;
  return d;
}

namespace {

/// Registry of live thread tallies plus the folded totals of exited
/// threads (build pools come and go).
struct TallyRegistry {
  std::mutex mu;
  std::vector<const LayerTally*> live;
  LayerTally retired;
};

TallyRegistry& Registry() {
  static TallyRegistry* registry = new TallyRegistry();  // Never destroyed:
  return *registry;  // thread exits may run after static destruction.
}

struct RegisteredTally {
  LayerTally tally;
  RegisteredTally() {
    TallyRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.live.push_back(&tally);
  }
  ~RegisteredTally() {
    TallyRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.retired += tally;
    r.live.erase(std::find(r.live.begin(), r.live.end(), &tally));
  }
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

namespace {
std::atomic<bool> g_metric_timing{true};
}  // namespace

void SetMetricTiming(bool on) {
  g_metric_timing.store(on, std::memory_order_relaxed);
}

bool MetricTiming() { return g_metric_timing.load(std::memory_order_relaxed); }

uint64_t ClockReadNs() {
  static const uint64_t cost = [] {
    std::vector<uint64_t> gaps(20001);
    for (uint64_t& gap : gaps) {
      const uint64_t a = mcm::MonotonicNanos();
      gap = mcm::MonotonicNanos() - a;
    }
    std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
    return gaps[gaps.size() / 2];
  }();
  return cost;
}

LayerTally& ThreadTally() {
  thread_local RegisteredTally t;
  return t.tally;
}

LayerTally AllThreadsTally() {
  TallyRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  LayerTally sum = r.retired;
  for (const LayerTally* t : r.live) sum += *t;
  return sum;
}

bool CompareExact(const ExactCounters& want, const ExactCounters& got,
                  const char* what) {
  bool same = want.size() == got.size();
  for (const auto& [name, value] : want) {
    const auto it = got.find(name);
    if (it == got.end() || it->second != value) {
      std::cout << "# MISMATCH " << what << ": " << name << " " << value
                << " vs "
                << (it == got.end() ? std::string("missing")
                                    : std::to_string(it->second))
                << "\n";
      same = false;
    }
  }
  return same;
}

void OpLayers::AddLayer(const std::string& name, uint64_t ns) {
  layers.emplace_back(name, ns);
}

double OpLayers::RemainderNs() const {
  double rest = static_cast<double>(wall_ns);
  for (const auto& layer : layers) rest -= static_cast<double>(layer.second);
  return rest;
}

void Sink::Metric(const std::string& name, double value,
                  const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
  std::cout << "metric " << name << " = " << FormatNumber(value) << " "
            << unit << "\n";
}

void Sink::Latency(const std::string& op, const Samples& s) {
  const size_t n = s.count();
  std::cout << "latency " << op << ": n=" << n << " p50="
            << FormatNumber(s.Quantile(0.5)) << "us";
  for (const int p : {95, 99}) {
    const size_t beyond = n - static_cast<size_t>(std::ceil(p / 100.0 * n));
    std::cout << " p" << p << "=" << FormatNumber(s.Quantile(p / 100.0))
              << "us (" << beyond << " beyond)";
  }
  std::cout << " max=" << FormatNumber(s.Quantile(1.0)) << "us\n";
}

void Sink::LayerTable(const std::string& workload, const std::string& op,
                      const OpLayers& l) {
  if (l.ops == 0) return;
  const double ops = static_cast<double>(l.ops);
  const double wall_us = static_cast<double>(l.wall_ns) / ops * 1e-3;
  char line[256];
  std::cout << "\n" << workload << " / " << op << ": exclusive self time per op"
            << " (traced, n=" << l.ops << ")\n";
  std::snprintf(line, sizeof(line), "  %-28s %12s %8s\n", "layer", "us/op",
                "share");
  std::cout << line;
  for (const auto& [name, ns] : l.layers) {
    const double us = static_cast<double>(ns) / ops * 1e-3;
    std::snprintf(line, sizeof(line), "  %-28s %12.3f %7.1f%%\n",
                  name.c_str(), us, 100.0 * us / wall_us);
    std::cout << line;
  }
  const double rest_us = l.RemainderNs() / ops * 1e-3;
  std::snprintf(line, sizeof(line), "  %-28s %12.3f %7.1f%%%s\n",
                (l.remainder_name + " (remainder)").c_str(), rest_us,
                100.0 * rest_us / wall_us, rest_us < 0 ? "  NEGATIVE" : "");
  std::cout << line;
  std::snprintf(line, sizeof(line), "  %-28s %12.3f %7.1f%%\n",
                "op wall (traced)", wall_us, 100.0);
  std::cout << line;
  if (l.untraced_mean_us > 0.0) {
    std::snprintf(line, sizeof(line),
                  "  %-28s %12.3f   tracing overhead %+.1f%%\n",
                  "op wall (untraced)", l.untraced_mean_us,
                  100.0 * (wall_us / l.untraced_mean_us - 1.0));
    std::cout << line;
  }
  if (rest_us < 0.0) {
    Fail(workload + "/" + op + ": layer self times exceed the op wall");
  }
}

void Sink::Note(const std::string& line) {
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "[%7.2fs] ", SecondsSince(start_ns_));
  std::cout << "# " << stamp << line << "\n";
}

void Sink::Fail(const std::string& why) {
  correct = false;
  std::cout << "# FAIL " << why << "\n";
}

void Sink::Finish() {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    out << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
        << (std::isfinite(vu.first) ? FormatNumber(vu.first) : "null")
        << ", \"unit\": \"" << vu.second << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

namespace {

/// The traced run's metrics: (name, unit). Must match BENCHMARK.json.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"storage.hit_rate", "ratio"},
    {"storage.phys_reads_per_op", "count"},
    {"storage.read_us_per_op", "us"},
    {"storage.evictions_per_op", "count"},
    {"storage.node_read_us_per_op", "us"},
    {"storage.decode_self_us_per_op", "us"},
    {"mtree.nodes_per_op", "count"},
    {"mtree.pruned_per_op", "count"},
    {"mtree.traverse_self_us_per_op", "us"},
    {"metric.dists_per_op", "count"},
    {"metric.us_per_op", "us"},
    {"metric.ns_per_call", "ns"},
    {"engine.witness_avoided_per_op", "count"},
    {"engine.worker_busy_frac", "ratio"},
    {"shard.plan_range_us", "us"},
    {"shard.plan_knn_us", "us"},
    {"shard.dispatched_per_op", "count"},
    {"shard.skipped_per_op", "count"},
    {"shard.search_self_us_per_op", "us"},
    {"shard.queued_frac", "ratio"},
    {"cost.pred_nodes_rel_err", "ratio"},
    {"build.histogram_s", "s"},
    {"build.load_s", "s"},
    {"build.cascade_s", "s"},
    {"build.flush_s", "s"},
    {"build.dists_per_obj", "count"},
    {"trace.overhead_frac", "ratio"},
};

}  // namespace

void EmitPerLayer(Sink& sink, const std::map<std::string, double>& values) {
  size_t used = 0;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = values.find(name);
    used += it != values.end();
    sink.Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  if (used != values.size()) sink.Fail("unknown per-layer metric name");
}

VectorInputs MakeVectorInputs(uint64_t seed, size_t num_queries) {
  constexpr size_t kN = 1000000;
  constexpr size_t kDim = 8;
  constexpr size_t kPool = 65536;
  VectorInputs in;
  in.objects = mcm::GenerateClustered(kN, kDim, kDatasetSeed);
  const std::vector<mcm::FloatVector> pool = mcm::GenerateVectorQueries(
      mcm::VectorDatasetKind::kClustered, kPool, kDim,
      kDatasetSeed);
  const size_t offset = mcm::DeriveSeed(seed, 0) % kPool;
  for (size_t i = 0; i < num_queries; ++i) {
    in.queries.push_back(pool[(offset + i) % kPool]);
  }
  return in;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void PrintEnvironment(const Args& args) {
  std::cout << "# workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\n# host nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << __VERSION__ << "\" build_type="
            << PERFBENCH_BUILD_TYPE << " kernels="
            << mcm::kernels::BackendName(mcm::kernels::ActiveBackend())
            << "\n# clock read " << ClockReadNs()
            << " ns (subtracted from each sampled metric call when tracing)"
            << "\n# MCM_* knobs set:";
  bool any = false;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "MCM_", 4) == 0) {
      std::cout << " " << *env;
      any = true;
    }
  }
  std::cout << (any ? "" : " none (every knob at its default)") << "\n";
}

}  // namespace perfbench

namespace {

int Usage() {
  std::cerr << "usage: mcm_perfbench --workload <vec-paged|vec-shard> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.work_dir.empty() || !(args.seconds > 0.0)) {
    return Usage();
  }
  perfbench::PrintEnvironment(args);
  perfbench::Sink sink;
  try {
    int rc = 2;
    if (args.workload == "vec-paged") {
      rc = perfbench::RunVecPaged(args, sink);
    } else if (args.workload == "vec-shard") {
      rc = perfbench::RunVecShard(args, sink);
    } else {
      return Usage();
    }
    if (rc != 0) return rc;
  } catch (const std::exception& e) {
    std::cerr << "mcm_perfbench: " << e.what() << "\n";
    return 1;
  }
  const double fail_frac =
      sink.attempted ? static_cast<double>(sink.failed) /
                           static_cast<double>(sink.attempted)
                     : 1.0;
  sink.Note("fail_frac = " + std::to_string(fail_frac) + " (" +
            std::to_string(sink.failed) + " of " +
            std::to_string(sink.attempted) + " operations)");
  sink.Finish();
  return 0;
}
