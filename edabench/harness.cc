#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <numeric>

namespace edabench {

namespace fs = std::filesystem;

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Spans::MeanMicros(const std::string& name) const {
  auto it = spans_.find(name);
  return it == spans_.end() ? 0 : it->second.Mean();
}

size_t Spans::Count(const std::string& name) const {
  auto it = spans_.find(name);
  return it == spans_.end() ? 0 : it->second.size();
}

RegistryView RegistryView::Take() {
  RegistryView view;
  for (const edadb::metrics::MetricSnapshot& ms :
       edadb::metrics::Registry::Default()->Snapshot()) {
    view.entries[ms.name] = {ms.value, ms.count, ms.sum};
  }
  return view;
}

namespace {

RegistryView::Entry Lookup(const RegistryView& view, const std::string& name) {
  auto it = view.entries.find(name);
  return it == view.entries.end() ? RegistryView::Entry{} : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

double RegistryView::CounterDelta(const RegistryView& before,
                                  const std::string& name) const {
  return static_cast<double>(Lookup(*this, name).value -
                             Lookup(before, name).value);
}

double RegistryView::CounterDeltaMatching(const RegistryView& before,
                                          const std::string& prefix,
                                          const std::string& suffix) const {
  double total = 0;
  for (const auto& [name, entry] : entries) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += CounterDelta(before, name);
    }
  }
  return total;
}

double RegistryView::HistogramMeanDelta(const RegistryView& before,
                                        const std::string& name) const {
  const Entry now = Lookup(*this, name);
  const Entry then = Lookup(before, name);
  return Ratio(static_cast<double>(now.sum - then.sum),
               static_cast<double>(now.count - then.count));
}

double RegistryView::HistogramSumDelta(const RegistryView& before,
                                       const std::string& name) const {
  return static_cast<double>(Lookup(*this, name).sum -
                             Lookup(before, name).sum);
}

double RegistryView::HistogramCountDelta(const RegistryView& before,
                                         const std::string& name) const {
  return static_cast<double>(Lookup(*this, name).count -
                             Lookup(before, name).count);
}

void RunOutput::StartRound() { round_start_ns_ = NowNs(); }

void RunOutput::EndRound(uint64_t events) {
  rounds.push_back({events, (NowNs() - round_start_ns_) / 1e9, ingest_us,
                    alert_us});
  ingest_us.Clear();  // Keeps the capacity reserved for the next round.
  alert_us.Clear();
}

uint64_t RunOutput::events() const {
  uint64_t total = 0;
  for (const Round& round : rounds) total += round.events;
  return total;
}

void RunOutput::Problem(const std::string& what) {
  correct = false;
  if (problems.size() < 8) problems.push_back(what);
}

void RunOutput::Fail(uint64_t count, const std::string& what) {
  failed += count;
  if (count > 0 && problems.size() < 8) problems.push_back(what);
}

edadb::EventProcessorOptions Workload::ProcessorOptions(
    const std::string& dir) {
  edadb::EventProcessorOptions options;
  options.data_dir = dir;
  // Appends reach the page cache, never the disk's flush path.
  options.wal_sync_policy = edadb::WalSyncPolicy::kNever;
  options.shards = kShards;
  // No timer-driven __metrics refresh inside timed sections.
  options.metrics_refresh_interval_micros = -1;
  return options;
}

edadb::Status Workload::OpenProcessor(const std::string& dir) {
  auto opened = edadb::EventProcessor::Open(ProcessorOptions(dir));
  if (!opened.ok()) return opened.status();
  processor_ = std::move(*opened);
  return edadb::Status::OK();
}

uint64_t RoundEvents(const Options& options, double nominal_eps,
                     uint64_t unit) {
  const double wanted =
      std::max(1.0, options.seconds) * nominal_eps / kRounds;
  const uint64_t units =
      std::max<uint64_t>(1, static_cast<uint64_t>(wanted / unit));
  return units * unit;
}

namespace {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// Layer figures read from the open processor after the run: rows left
/// in the cross-shard handoff ledgers and WAL segment files on disk.
void InspectStorage(edadb::EventProcessor* processor, const std::string& dir,
                    RunOutput* out) {
  double ledger_rows = 0;
  for (size_t s = 0; s < processor->queues()->num_shards(); ++s) {
    auto rows = processor->queues()->shard_db(s)->CountRows("__handoff");
    if (rows.ok()) ledger_rows += static_cast<double>(*rows);
  }
  out->layers["mq.handoff_ledger_rows"] = ledger_rows;
  double segments = 0;
  std::error_code ec;
  for (const auto& entry :
       fs::recursive_directory_iterator(dir + "/wal", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && entry.path().extension() == ".log") {
      ++segments;
    }
  }
  out->layers["storage.wal_segments"] = segments;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;  // -1: not a sampled statistic.
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (m.samples >= 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

/// Per-layer metrics: the workload's own figures plus registry deltas
/// and span means shared by every workload. Every name is always
/// printed; a layer that does no work in a workload reads 0.
std::vector<Metric> LayerMetrics(const RunOutput& out, const Spans& spans,
                                 const RegistryView& before,
                                 const RegistryView& after) {
  const double events = static_cast<double>(out.events());
  const double routed =
      after.CounterDelta(before, "core.routed_to_queues") +
      after.CounterDelta(before, "core.routed_to_topics");
  const double evaluated = after.CounterDelta(before, "rules.evaluated");
  const auto own = [&out](const std::string& name) {
    auto it = out.layers.find(name);
    return it == out.layers.end() ? 0.0 : it->second;
  };
  const auto span = [&spans](const char* name, const char* metric) {
    return Metric{metric, spans.MeanMicros(name), "us",
                  static_cast<int64_t>(spans.Count(name))};
  };
  return {
      span("core.ingest_batch", "core.ingest_batch_us"),
      span("core.pump", "core.pump_us"),
      {"core.routed_per_event", Ratio(routed, events), "count/event", -1},
      {"core.bus_deliveries_per_event",
       Ratio(own("core.bus_deliveries"), events), "count/event", -1},
      {"rules.match_us_per_event",
       Ratio(after.HistogramSumDelta(before, "rules.match.latency_us"),
             evaluated),
       "us", -1},
      {"rules.matched_per_event",
       Ratio(after.CounterDelta(before, "rules.matched"), evaluated),
       "count/event", -1},
      {"mq.commits_per_routed_event",
       Ratio(after.CounterDelta(before, "db.commits"), routed),
       "count/event", -1},
      {"mq.enqueue_us",
       after.HistogramMeanDelta(before, "mq.enqueue.latency_us"), "us",
       static_cast<int64_t>(
           after.HistogramCountDelta(before, "mq.enqueue.latency_us"))},
      {"mq.propagated_per_pump", own("mq.propagated_per_pump"),
       "count/pump", -1},
      {"mq.handoffs_per_event",
       Ratio(after.CounterDeltaMatching(before, "shard.", ".handoffs"),
             events),
       "count/event", -1},
      {"mq.backlog_max", own("mq.backlog_max"), "count", -1},
      {"mq.handoff_ledger_rows", own("mq.handoff_ledger_rows"), "count", -1},
      {"db.commit_us",
       after.HistogramMeanDelta(before, "db.commit.latency_us"), "us",
       static_cast<int64_t>(
           after.HistogramCountDelta(before, "db.commit.latency_us"))},
      {"db.commit_ops", after.HistogramMeanDelta(before, "db.commit.ops"),
       "count", -1},
      span("db.write_txn", "db.write_txn_us"),
      {"storage.wal_records_per_event",
       Ratio(after.CounterDelta(before, "wal.append.records"), events),
       "count/event", -1},
      {"storage.wal_append_us",
       after.HistogramMeanDelta(before, "wal.append.latency_us"), "us",
       static_cast<int64_t>(
           after.HistogramCountDelta(before, "wal.append.latency_us"))},
      {"storage.wal_segments", own("storage.wal_segments"), "count", -1},
      span("journal.poll", "journal.poll_us"),
      {"journal.events_per_poll", own("journal.events_per_poll"),
       "count/poll", -1},
      span("cq.window_push", "cq.window_push_us"),
      span("cq.pattern_push", "cq.pattern_push_us"),
      span("cq.query_poll", "cq.query_poll_us"),
      {"cq.results_per_kevent", own("cq.results_per_kevent"),
       "count/kevent", -1},
      {"pubsub.publish_us",
       after.HistogramMeanDelta(before, "pubsub.publish.latency_us"), "us",
       static_cast<int64_t>(
           after.HistogramCountDelta(before, "pubsub.publish.latency_us"))},
      {"pubsub.deliveries_per_event",
       Ratio(after.CounterDelta(before, "pubsub.deliveries"), events),
       "count/event", -1},
      span("pubsub.live_poll", "pubsub.live_poll_us"),
      span("pubsub.fetch", "pubsub.fetch_us"),
      {"pubsub.live_missed", after.CounterDelta(before, "pubsub.ring.missed"),
       "count", -1},
  };
}

}  // namespace

int Drive(const Options& options, WorkloadFactory factory) {
  // Histograms feed the layer metrics; do not let the environment turn
  // them off for one side of a comparison.
  edadb::metrics::SetEnabled(true);
  std::error_code ec;
  fs::create_directories(options.data_dir, ec);

  // Set-up is repeated on fresh directories and reported as a median;
  // the last set-up is the one the run uses.
  constexpr int kSetups = 31;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  std::string run_dir;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = options.data_dir + "/setup-" + std::to_string(i);
    fs::remove_all(dir, ec);
    std::unique_ptr<Workload> candidate = factory(options);
    const int64_t start = NowNs();
    const edadb::Status s = candidate->Setup(dir);
    setup_s.push_back((NowNs() - start) / 1e9);
    if (!s.ok()) {
      std::fprintf(stderr, "edabench: set-up failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (i + 1 < kSetups) {
      candidate->Close();
      fs::remove_all(dir, ec);
    } else {
      workload = std::move(candidate);
      run_dir = dir;
    }
  }

  RunOutput out;
  Spans spans(options.trace);
  const RegistryView before = RegistryView::Take();
  const edadb::Status run = workload->Run(&spans, &out);
  if (!run.ok()) {
    std::fprintf(stderr, "edabench: run failed: %s\n",
                 run.ToString().c_str());
    return 1;
  }
  const RegistryView after = RegistryView::Take();
  InspectStorage(workload->processor(), run_dir, &out);
  const double data_dir_mb = static_cast<double>(DirBytes(run_dir)) / 1e6;
  // Peak through set-up and the run; recovery below reads whole WAL
  // segments and is covered by recovery_s instead.
  const double rss_peak_mb = PeakRssMb();
  workload->Close();

  // Recovery: reopen the run's directory; median of up to five opens
  // of the same directory, stopping once the opens have taken 10 s (a
  // long reopen is its own average, and the run budget goes to the run).
  constexpr int kRecoveries = 5;
  constexpr double kRecoveryBudgetS = 10;
  std::vector<double> recovery_s;
  double recovery_total_s = 0;
  for (int i = 0; i < kRecoveries && recovery_total_s < kRecoveryBudgetS;
       ++i) {
    const int64_t start = NowNs();
    auto reopened =
        edadb::EventProcessor::Open(Workload::ProcessorOptions(run_dir));
    recovery_s.push_back((NowNs() - start) / 1e9);
    recovery_total_s += recovery_s.back();
    if (!reopened.ok()) {
      std::fprintf(stderr, "edabench: recovery failed: %s\n",
                   reopened.status().ToString().c_str());
      return 1;
    }
    if (i == 0) workload->CheckRecovered(reopened->get(), &out);
  }
  workload.reset();
  fs::remove_all(run_dir, ec);

  // Timings: the median over rounds of each round's own figure.
  const auto over_rounds = [&out](auto figure) {
    std::vector<double> values;
    for (const RunOutput::Round& round : out.rounds) {
      values.push_back(figure(round));
    }
    return values.empty() ? 0.0 : Median(values);
  };
  const auto percentile = [&over_rounds](Samples RunOutput::Round::*samples,
                                         double p) {
    return over_rounds([samples, p](const RunOutput::Round& round) {
      return (round.*samples).Percentile(p);
    });
  };
  int64_t ingest_samples = 0, alert_samples = 0;
  size_t fewest_ingest = SIZE_MAX, fewest_alert = SIZE_MAX;
  for (const RunOutput::Round& round : out.rounds) {
    ingest_samples += static_cast<int64_t>(round.ingest_us.size());
    alert_samples += static_cast<int64_t>(round.alert_us.size());
    fewest_ingest = std::min(fewest_ingest, round.ingest_us.size());
    fewest_alert = std::min(fewest_alert, round.alert_us.size());
  }
  const double events = static_cast<double>(out.events());
  const std::vector<Metric> end_to_end = {
      {"throughput_eps",
       over_rounds([](const RunOutput::Round& round) {
         return Ratio(static_cast<double>(round.events), round.elapsed_s);
       }),
       "events/s", static_cast<int64_t>(out.rounds.size())},
      {"ingest_p50_us", percentile(&RunOutput::Round::ingest_us, 50), "us",
       ingest_samples},
      {"ingest_p99_us", percentile(&RunOutput::Round::ingest_us, 99), "us",
       ingest_samples},
      {"alert_p50_us", percentile(&RunOutput::Round::alert_us, 50), "us",
       alert_samples},
      {"alert_p99_us", percentile(&RunOutput::Round::alert_us, 99), "us",
       alert_samples},
      {"setup_s", Median(setup_s), "s", kSetups},
      {"recovery_s", Median(recovery_s), "s",
       static_cast<int64_t>(recovery_s.size())},
      {"wal_bytes_per_event",
       Ratio(after.CounterDelta(before, "wal.append.bytes"), events),
       "B/event", -1},
      {"data_dir_mb", data_dir_mb, "MB", -1},
      {"rss_peak_mb", rss_peak_mb, "MB", -1},
  };
  // A round's p99 needs ten samples beyond it; shorter runs than the
  // benchmark's own length may not get there.
  for (const auto& [name, count] :
       {std::pair<const char*, size_t>{"ingest", fewest_ingest},
        {"alert", fewest_alert}}) {
    if (count < 1000) {
      std::fprintf(stderr,
                   "edabench: warning: a round has %zu %s samples; its p99 "
                   "has fewer than ten beyond it\n",
                   count, name);
    }
  }
  std::string params = "{";
  for (const auto& [name, value] : out.params) {
    if (params.size() > 1) params += ", ";
    params += JsonString(name) + ": " + JsonNumber(value);
  }
  params += "}";
  std::string problems = "[";
  for (size_t i = 0; i < out.problems.size(); ++i) {
    if (i > 0) problems += ", ";
    problems += JsonString(out.problems[i]);
  }
  problems += "]";
  std::string round_eps = "[";
  for (const RunOutput::Round& round : out.rounds) {
    if (round_eps.size() > 1) round_eps += ", ";
    round_eps += JsonNumber(
        Ratio(static_cast<double>(round.events), round.elapsed_s));
  }
  round_eps += "]";

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %s, \"events\": %llu, "
      "\"rounds\": %zu, \"round_eps\": %s, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"problems\": %s, \"params\": %s, \"end_to_end\": %s, "
      "\"per_layer\": %s}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      options.trace ? "true" : "false",
      static_cast<unsigned long long>(out.events()), out.rounds.size(),
      round_eps.c_str(),
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), problems.c_str(),
      params.c_str(), MetricsJson(end_to_end).c_str(),
      MetricsJson(LayerMetrics(out, spans, before, after)).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace edabench
