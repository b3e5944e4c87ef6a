// Shared machinery of the edabench workloads: run options, the seeded
// input generator, timing samples with real percentiles, opt-in spans
// around the benchmark's own calls into each layer, registry deltas,
// and the driver that times set-up, the fixed-work run and recovery.
#ifndef EDABENCH_HARNESS_H_
#define EDABENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/processor.h"

namespace edabench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Scales the fixed input size (events = seconds x nominal rate); the
  /// run processes exactly that many events however long it takes.
  double seconds = 20;
  bool trace = false;
  /// Parent of the per-run data directories (removed at exit).
  std::string data_dir;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic generator stream: the same seed gives the same inputs
/// on every run (raw mt19937_64 draws, no library distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  uint64_t Next() { return engine_(); }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }

 private:
  std::mt19937_64 engine_;
};

/// Raw timing samples (microseconds); percentiles interpolate between
/// the closest ranks of the sorted samples.
class Samples {
 public:
  void Add(double micros) { values_.push_back(micros); }
  void Clear() { values_.clear(); }
  /// Pre-sizes the buffer so no reallocation lands in a timed section.
  void Reserve(size_t n) { values_.reserve(n); }
  size_t size() const { return values_.size(); }
  double Percentile(double p) const;
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// Named span samples, recorded only in traced runs so the untraced
/// run pays no extra clock reads.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  Samples* Get(const std::string& name) { return &spans_[name]; }
  double MeanMicros(const std::string& name) const;
  size_t Count(const std::string& name) const;

 private:
  bool enabled_;
  std::map<std::string, Samples> spans_;
};

/// Times one call into a layer when tracing is on; a no-op otherwise.
class Span {
 public:
  Span(Spans* spans, const char* name)
      : samples_(spans->enabled() ? spans->Get(name) : nullptr),
        start_(samples_ != nullptr ? NowNs() : 0) {}
  ~Span() {
    if (samples_ != nullptr) samples_->Add((NowNs() - start_) / 1000.0);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Samples* samples_;
  int64_t start_;
};

/// Registry snapshot reduced to what the layer metrics read: counter
/// values, histogram counts and sums, keyed by metric name.
struct RegistryView {
  struct Entry {
    int64_t value = 0;
    uint64_t count = 0;
    uint64_t sum = 0;
  };
  std::map<std::string, Entry> entries;

  static RegistryView Take();
  /// Counter delta `name` (this minus `before`).
  double CounterDelta(const RegistryView& before, const std::string& name) const;
  /// Sum of counter deltas over every name with `prefix` and `suffix`.
  double CounterDeltaMatching(const RegistryView& before,
                              const std::string& prefix,
                              const std::string& suffix) const;
  /// Mean of histogram observations recorded since `before` (0 if none).
  double HistogramMeanDelta(const RegistryView& before,
                            const std::string& name) const;
  double HistogramSumDelta(const RegistryView& before,
                           const std::string& name) const;
  double HistogramCountDelta(const RegistryView& before,
                             const std::string& name) const;
};

/// What one workload run hands back to the driver. A run is a fixed
/// number of equal rounds, each ending with every sink drained. Every
/// end-to-end timing is computed per round (throughput, and each
/// percentile over that round's own samples) and reported as the median
/// over the rounds, so a slow spell of a shared machine, or one WAL
/// segment roll, moves one round rather than the whole figure.
struct RunOutput {
  struct Round {
    uint64_t events = 0;
    double elapsed_s = 0;  // Round start to its last sink arrival.
    Samples ingest_us;
    Samples alert_us;
  };

  /// The current round's samples; sinks keep pointers to these.
  Samples ingest_us;  // One per generator input call.
  Samples alert_us;   // One per arrival at a benchmark sink.
  std::vector<Round> rounds;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  // First few check failures.
  /// Per-layer metrics this workload measured (name -> value).
  std::map<std::string, double> layers;
  /// Workload make-up, printed with the result.
  std::map<std::string, double> params;

  void StartRound();
  /// Files the current round: `events` inputs, timed from StartRound().
  void EndRound(uint64_t events);
  uint64_t events() const;
  /// A wrong output: makes the run incorrect.
  void Problem(const std::string& what);
  /// Records `count` failed operations (inputs that never reached a sink
  /// they should have); `correct` speaks only of the rest.
  void Fail(uint64_t count, const std::string& what);

 private:
  int64_t round_start_ns_ = 0;
};

/// One workload: set-up through public APIs, a fixed-work run with its
/// own output checks, and the post-recovery checks. Subclasses call
/// Close() first in their destructors, so the processor never outlives
/// the sinks and handlers it calls back into.
class Workload {
 public:
  explicit Workload(const Options& options) : options_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// OpenProcessor(dir) plus loading rules, subscriptions, queues and
  /// reference tables. Timed as setup_s.
  virtual edadb::Status Setup(const std::string& dir) = 0;
  /// Generates the fixed input from the seed, drives the processor,
  /// drains every sink and checks the outputs.
  virtual edadb::Status Run(Spans* spans, RunOutput* out) = 0;
  /// Checks on a processor reopened from the run's data directory.
  virtual void CheckRecovered(edadb::EventProcessor* processor,
                              RunOutput* out) {
    (void)processor;
    (void)out;
  }

  edadb::EventProcessor* processor() const { return processor_.get(); }
  void Close() { processor_.reset(); }

  /// Options every workload opens (and recovery reopens) with.
  static edadb::EventProcessorOptions ProcessorOptions(const std::string& dir);

 protected:
  edadb::Status OpenProcessor(const std::string& dir);

  const Options options_;
  std::unique_ptr<edadb::EventProcessor> processor_;
};

using WorkloadFactory = std::unique_ptr<Workload> (*)(const Options&);

std::unique_ptr<Workload> MakeRoutePipeline(const Options& options);
std::unique_ptr<Workload> MakeFilterFanout(const Options& options);
std::unique_ptr<Workload> MakeCaptureCq(const Options& options);

/// Times set-up, runs the workload, times recovery and prints the
/// result line. Returns the process exit code.
int Drive(const Options& options, WorkloadFactory factory);

/// Rounds per run.
constexpr int kRounds = 8;

/// Fixed input size of one round: whole units of `unit` events, about
/// `nominal_eps` x seconds / kRounds of them.
uint64_t RoundEvents(const Options& options, double nominal_eps,
                     uint64_t unit);

/// Delivery-core shards of every workload (never 0, which would follow
/// the machine's hardware concurrency).
constexpr int kShards = 2;

}  // namespace edabench

#endif  // EDABENCH_HARNESS_H_
