// capture_cq: the storage layers used from the write side. The
// generator writes rows through Database transactions; journal capture
// (insert-only readings table) and query-diff capture (a bounded hot
// table updated in place) turn the writes into events. Bus subscribers
// feed a WindowedAggregator and a PatternMatcher whose results reach a
// benchmark-owned sink through StreamRuleBridge and the rules engine.
#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/sources.h"
#include "cq/pattern.h"
#include "cq/window.h"
#include "harness.h"
#include "rules/stream_bridge.h"

namespace edabench {
namespace {

using edadb::Event;
using edadb::Record;
using edadb::Status;
using edadb::Value;
using edadb::ValueType;

constexpr uint64_t kRowsPerTxn = 4;       // Readings inserted per write.
constexpr uint64_t kEventsPerTxn = kRowsPerTxn + 1;  // + one hot update.
constexpr uint64_t kPollEvery = 16;       // Transactions between polls.
constexpr double kNominalEps = 100000;    // Sizes the fixed input.
constexpr int64_t kSensors = 32;          // Readings keys.
constexpr int64_t kHotRows = 64;          // Bounded hot table.
constexpr int64_t kTxnMicros = 1000;      // Event time per transaction.
constexpr int64_t kWindowMicros = 64000;  // Tumbling window.
constexpr int64_t kWithinMicros = 400000; // Pattern horizon.
constexpr int64_t kSpikeLevel = 90;       // Pattern step A: level >= 90.
constexpr int64_t kDropLevel = 9;         // Pattern step B: level <= 9.

int64_t IntAttr(const Event& event, const char* name) {
  for (const auto& [attr, value] : event.attributes) {
    if (attr == name && value.type() == ValueType::kInt64) {
      return value.int64_value();
    }
  }
  return -1;
}

int64_t IntAttr(const edadb::RowAccessor& row, const char* name) {
  auto value = row.GetAttribute(name);
  return value.has_value() && value->type() == ValueType::kInt64
             ? value->int64_value()
             : -1;
}

struct WindowAgg {
  int64_t count = 0, total = 0, peak = -1;
  bool operator==(const WindowAgg& o) const {
    return count == o.count && total == o.total && peak == o.peak;
  }
};
using WindowKey = std::pair<int64_t, int64_t>;  // (window_start, sensor)
using MatchKey = std::tuple<int64_t, int64_t, int64_t>;  // (sensor, start, end)

class CaptureCq : public Workload {
 public:
  using Workload::Workload;
  ~CaptureCq() override { Close(); }

  Status Setup(const std::string& dir) override {
    if (Status s = OpenProcessor(dir); !s.ok()) return s;
    edadb::Database* db = processor_->db();
    readings_schema_ = edadb::Schema::Make({
        {"sensor", ValueType::kInt64, false},
        {"seq", ValueType::kInt64, false},
        {"ts", ValueType::kInt64, false},
        {"v", ValueType::kInt64, false},
        {"gen_ns", ValueType::kInt64, false},
    });
    hot_schema_ = edadb::Schema::Make({
        {"sensor", ValueType::kInt64, false},
        {"level", ValueType::kInt64, false},
        {"seq", ValueType::kInt64, false},
        {"ts", ValueType::kInt64, false},
        {"gen_ns", ValueType::kInt64, false},
    });
    if (auto t = db->CreateTable("readings", readings_schema_); !t.ok()) {
      return t.status();
    }
    if (auto t = db->CreateTable("hot", hot_schema_); !t.ok()) {
      return t.status();
    }
    hot_rows_.clear();
    for (int64_t h = 0; h < kHotRows; ++h) {
      auto id = db->Insert("hot", HotRow(h, 50, -1, 0, 0));
      if (!id.ok()) return id.status();
      hot_rows_.push_back(*id);
    }

    // Results reach the sink as rule matches over the bridged rows.
    edadb::RulesEngine* rules = processor_->rules();
    if (Status s = rules->AddRule("cq_window",
                                  "kind = 'final' AND window_end > 0",
                                  "cq.window");
        !s.ok()) {
      return s;
    }
    if (Status s = rules->AddRule("cq_spike", "pattern = 'spike_drop'",
                                  "cq.pattern");
        !s.ok()) {
      return s;
    }
    rules->RegisterActionHandler(
        "cq.window", [this](const edadb::Rule&, const edadb::RowAccessor& row) {
          OnWindowResult(row);
        });
    rules->RegisterActionHandler(
        "cq.pattern",
        [this](const edadb::Rule&, const edadb::RowAccessor& row) {
          OnPatternMatch(row);
        });
    bridge_ = std::make_unique<edadb::StreamRuleBridge>(rules);

    edadb::WindowAggregatorOptions window;
    window.window_size_micros = kWindowMicros;
    window.key_column = "sensor";
    window.aggregates = {{edadb::Aggregate::Func::kCount, "v", "cnt"},
                         {edadb::Aggregate::Func::kSum, "v", "total"},
                         {edadb::Aggregate::Func::kMax, "v", "peak"}};
    window_ = std::make_unique<edadb::WindowedAggregator>(
        window, [this, forward = bridge_->WindowCallback()](
                    const edadb::WindowResult& result) {
          ++results_emitted_;
          forward(result);
        });
    edadb::PatternSpec spec;
    spec.name = "spike_drop";
    spec.within_micros = kWithinMicros;
    spec.partition_by = "sensor";
    auto spike = edadb::Predicate::Compile("level >= " +
                                           std::to_string(kSpikeLevel));
    auto drop =
        edadb::Predicate::Compile("level <= " + std::to_string(kDropLevel));
    if (!spike.ok()) return spike.status();
    if (!drop.ok()) return drop.status();
    spec.steps = {{"spike", *spike, false, false},
                  {"drop", *drop, false, false}};
    auto pattern = edadb::PatternMatcher::Create(
        std::move(spec), [this, forward = bridge_->PatternCallback()](
                             const edadb::PatternMatch& match) {
          ++results_emitted_;
          forward(match);
        });
    if (!pattern.ok()) return pattern.status();
    pattern_ = std::move(*pattern);

    if (auto h = processor_->bus()->Subscribe(
            [this](const Event& event) { OnReading(event); },
            "event_type = 'reading'");
        !h.ok()) {
      return h.status();
    }
    if (auto h = processor_->bus()->Subscribe(
            [this](const Event& event) { OnLevel(event); },
            "event_type = 'level'");
        !h.ok()) {
      return h.status();
    }

    journal_ = std::make_unique<edadb::JournalEventSource>(
        db, [this](const Event& event) { captured_.push_back(event); },
        "readings", "reading", db->wal_end_lsn());
    edadb::Query hot_query;
    hot_query.table = "hot";
    query_ = std::make_unique<edadb::QueryEventSource>(
        db, [this](const Event& event) { level_events_.push_back(event); },
        std::move(hot_query), std::vector<std::string>{"sensor"}, "level");
    // Prime the baseline so the initial hot rows are not changes.
    return query_->Poll().status();
  }

  Status Run(Spans* spans, RunOutput* out) override {
    const uint64_t per_round =
        RoundEvents(options_, kNominalEps, kEventsPerTxn * kPollEvery);
    const uint64_t round_txns = per_round / kEventsPerTxn;
    const uint64_t events = per_round * kRounds;
    const uint64_t txns = events / kEventsPerTxn;
    const uint64_t rows = txns * kRowsPerTxn;
    Rng rng(options_.seed);
    spans_ = spans;
    alert_us_ = &out->alert_us;
    row_captures_.assign(rows, 0);
    hot_captures_.assign(txns, 0);
    out->ingest_us.Reserve(round_txns);
    out->alert_us.Reserve(round_txns);  // About one result per two writes.
    std::map<WindowKey, WindowAgg> expected_windows;
    // Oracle for the pattern: open run start times per sensor, advanced
    // in event-time order exactly as the plain definition says.
    std::vector<std::deque<int64_t>> runs(kHotRows);
    std::map<MatchKey, int> expected_matches;
    edadb::Database* db = processor_->db();

    for (int round = 0; round < kRounds; ++round) {
      out->StartRound();
      for (uint64_t t = round * round_txns; t < (round + 1) * round_txns; ++t) {
        const int64_t gen_ns = NowNs();
        auto txn = db->BeginTransaction();
        for (uint64_t i = 0; i < kRowsPerTxn; ++i) {
          const int64_t seq = static_cast<int64_t>(t * kRowsPerTxn + i);
          const int64_t sensor = rng.Below(kSensors);
          const int64_t v = rng.Below(1000);
          const int64_t ts =
              static_cast<int64_t>(t) * kTxnMicros + static_cast<int64_t>(i) * 200;
          WindowAgg& agg =
              expected_windows[{ts - ts % kWindowMicros, sensor}];
          ++agg.count;
          agg.total += v;
          agg.peak = std::max(agg.peak, v);
          auto inserted = txn->Insert(
              "readings",
              Record(readings_schema_,
                     {Value::Int64(sensor), Value::Int64(seq), Value::Int64(ts),
                      Value::Int64(v), Value::Int64(gen_ns)}));
          if (!inserted.ok()) return inserted.status();
        }
        const int64_t hot = static_cast<int64_t>(t) % kHotRows;
        const int64_t level = rng.Below(100);
        const int64_t hot_ts = static_cast<int64_t>(t) * kTxnMicros + 900;
        AdvanceOracle(&runs[static_cast<size_t>(hot)], hot, hot_ts, level,
                      &expected_matches);
        if (Status s = txn->UpdateRow(
                "hot", hot_rows_[static_cast<size_t>(hot)],
                HotRow(hot, level, static_cast<int64_t>(t), hot_ts, gen_ns));
            !s.ok()) {
          return s;
        }
        {
          Span span(spans, "db.write_txn");
          if (Status s = txn->Commit(); !s.ok()) return s;
        }
        out->ingest_us.Add((NowNs() - gen_ns) / 1000.0);
        if ((t + 1) % kPollEvery == 0) {
          if (Status s = CaptureAndIngest(spans); !s.ok()) return s;
        }
      }
      // Round end: everything written so far is captured and ingested.
      if (Status s = CaptureAndIngest(spans); !s.ok()) return s;
      if (round + 1 == kRounds) {
        // End of stream: results still open have no completing write.
        completing_gen_ns_ = 0;
        if (Status s = window_->Flush(); !s.ok()) return s;
        if (Status s = pattern_->Flush(); !s.ok()) return s;
      }
      out->EndRound(per_round);
    }

    // Every committed write captured exactly once.
    uint64_t lost = 0, duplicated = 0;
    for (const std::vector<uint8_t>* captures : {&row_captures_, &hot_captures_}) {
      for (uint8_t c : *captures) {
        if (c == 0) ++lost;
        if (c > 1) ++duplicated;
      }
    }
    if (duplicated > 0) {
      out->Problem(std::to_string(duplicated) + " writes captured twice");
    }
    if (stray_captures_ > 0) {
      out->Problem(std::to_string(stray_captures_) +
                   " captured events match no write");
    }
    // Results: equal to the in-order recomputation.
    uint64_t missing_results = 0;
    for (const auto& [key, agg] : expected_windows) {
      auto it = windows_.find(key);
      if (it == windows_.end()) {
        ++missing_results;
      } else if (!(it->second == agg)) {
        out->Problem("window " + std::to_string(key.first) + " sensor " +
                     std::to_string(key.second) + " aggregates differ");
      }
    }
    if (windows_.size() != expected_windows.size() - missing_results) {
      out->Problem("sink received windows the recomputation does not have");
    }
    for (const auto& [key, count] : expected_matches) {
      auto it = matches_.find(key);
      const int got = it == matches_.end() ? 0 : it->second;
      if (got < count) missing_results += static_cast<uint64_t>(count - got);
      if (got > count) out->Problem("pattern match delivered twice");
    }
    for (const auto& [key, count] : matches_) {
      if (expected_matches.count(key) == 0) {
        out->Problem("pattern match the recomputation does not have");
        break;
      }
    }
    if (push_errors_ > 0 || bridge_->dispatch_errors() > 0) {
      out->Problem("window/pattern push or bridge dispatch failed");
    }
    if (window_results_malformed_ > 0) {
      out->Problem("window results without their key or aggregates");
    }
    uint64_t expected_results = expected_windows.size();
    for (const auto& [key, count] : expected_matches) {
      expected_results += static_cast<uint64_t>(count);
    }
    out->attempted = events + expected_results;
    out->Fail(lost + missing_results,
              std::to_string(lost) + " writes never captured, " +
                  std::to_string(missing_results) +
                  " results never reached the sink");
    out->layers["core.bus_deliveries"] = static_cast<double>(bus_deliveries_);
    out->layers["journal.events_per_poll"] =
        polls_ > 0 ? static_cast<double>(journal_events_) /
                         static_cast<double>(polls_)
                   : 0;
    out->layers["cq.results_per_kevent"] =
        1000.0 * static_cast<double>(results_emitted_) /
        static_cast<double>(events);
    out->params = {{"events", static_cast<double>(events)},
                   {"write_txns", static_cast<double>(txns)},
                   {"rows_per_txn", kRowsPerTxn},
                   {"hot_updates_per_txn", 1},
                   {"poll_every_txns", kPollEvery},
                   {"sensors", kSensors},
                   {"hot_table_rows", kHotRows},
                   {"window_ms", kWindowMicros / 1000.0},
                   {"pattern_within_ms", kWithinMicros / 1000.0},
                   {"shards", kShards},
                   {"expected_windows",
                    static_cast<double>(expected_windows.size())},
                   {"expected_matches",
                    static_cast<double>(expected_results -
                                        expected_windows.size())}};
    rows_written_ = rows;
    return Status::OK();
  }

  void CheckRecovered(edadb::EventProcessor* processor,
                      RunOutput* out) override {
    auto readings = processor->db()->CountRows("readings");
    auto hot = processor->db()->CountRows("hot");
    if (!readings.ok() || *readings != rows_written_) {
      out->Problem("readings rows after recovery differ from rows written");
    }
    if (!hot.ok() || *hot != static_cast<size_t>(kHotRows)) {
      out->Problem("hot table size changed across recovery");
    }
  }

 private:
  Record HotRow(int64_t sensor, int64_t level, int64_t seq, int64_t ts,
                int64_t gen_ns) const {
    return Record(hot_schema_, {Value::Int64(sensor), Value::Int64(level),
                                Value::Int64(seq), Value::Int64(ts),
                                Value::Int64(gen_ns)});
  }

  /// The two-step pattern "level >= spike, then level <= drop within
  /// the horizon", per sensor: every open run the event completes is a
  /// match; a spike opens a new run.
  static void AdvanceOracle(std::deque<int64_t>* runs, int64_t sensor,
                            int64_t ts, int64_t level,
                            std::map<MatchKey, int>* matches) {
    std::deque<int64_t> next;
    for (int64_t run_start : *runs) {
      if (ts - run_start > kWithinMicros) continue;
      if (level <= kDropLevel) {
        ++(*matches)[{sensor, run_start, ts}];
        continue;
      }
      next.push_back(run_start);
    }
    if (level >= kSpikeLevel && next.size() < 1024) next.push_back(ts);
    *runs = std::move(next);
  }

  /// Polls both capture sources and ingests what they captured as one
  /// batch: journal events in commit order, then hot-table changes in
  /// event-time order (the diff reports them in key order).
  Status CaptureAndIngest(Spans* spans) {
    captured_.clear();
    level_events_.clear();
    ++polls_;
    {
      Span span(spans, "journal.poll");
      auto polled = journal_->Poll();
      if (!polled.ok()) return polled.status();
    }
    journal_events_ += captured_.size();
    {
      Span span(spans, "cq.query_poll");
      auto polled = query_->Poll();
      if (!polled.ok()) return polled.status();
    }
    std::sort(level_events_.begin(), level_events_.end(),
              [](const Event& a, const Event& b) {
                return IntAttr(a, "ts") < IntAttr(b, "ts");
              });
    for (const Event& event : captured_) {
      const int64_t seq = IntAttr(event, "seq");
      if (seq < 0 || static_cast<size_t>(seq) >= row_captures_.size()) {
        ++stray_captures_;
      } else {
        ++row_captures_[static_cast<size_t>(seq)];
      }
    }
    for (Event& event : level_events_) {
      const int64_t seq = IntAttr(event, "seq");
      if (seq < 0 || static_cast<size_t>(seq) >= hot_captures_.size()) {
        ++stray_captures_;
      } else {
        ++hot_captures_[static_cast<size_t>(seq)];
      }
      captured_.push_back(std::move(event));
    }
    if (captured_.empty()) return Status::OK();
    Span span(spans, "core.ingest_batch");
    return processor_->IngestBatch(std::move(captured_));
  }

  void OnReading(const Event& event) {
    ++bus_deliveries_;
    completing_gen_ns_ = IntAttr(event, "gen_ns");
    Record row(readings_schema_,
               {Value::Int64(IntAttr(event, "sensor")),
                Value::Int64(IntAttr(event, "seq")),
                Value::Int64(IntAttr(event, "ts")),
                Value::Int64(IntAttr(event, "v")),
                Value::Int64(completing_gen_ns_)});
    Span span(spans_, "cq.window_push");
    if (!window_->Push(row, IntAttr(event, "ts")).ok()) ++push_errors_;
  }

  void OnLevel(const Event& event) {
    ++bus_deliveries_;
    completing_gen_ns_ = IntAttr(event, "gen_ns");
    Record row = HotRow(IntAttr(event, "sensor"), IntAttr(event, "level"),
                        IntAttr(event, "seq"), IntAttr(event, "ts"),
                        completing_gen_ns_);
    Span span(spans_, "cq.pattern_push");
    if (!pattern_->Push(row, IntAttr(event, "ts")).ok()) ++push_errors_;
  }

  /// Sink: a result arrives here from the rule that matched it. Its
  /// latency runs from the write that completed it.
  void RecordArrival() {
    if (completing_gen_ns_ > 0 && alert_us_ != nullptr) {
      alert_us_->Add((NowNs() - completing_gen_ns_) / 1000.0);
    }
  }

  void OnWindowResult(const edadb::RowAccessor& row) {
    RecordArrival();
    const WindowKey key{IntAttr(row, "window_start"), IntAttr(row, "key")};
    const WindowAgg agg{IntAttr(row, "cnt"), IntAttr(row, "total"),
                        IntAttr(row, "peak")};
    if (key.second < 0 || agg.count < 0) {
      ++window_results_malformed_;
      return;
    }
    if (!windows_.emplace(key, agg).second) ++window_results_malformed_;
  }

  void OnPatternMatch(const edadb::RowAccessor& row) {
    RecordArrival();
    ++matches_[{IntAttr(row, "key"), IntAttr(row, "start_ts"),
                IntAttr(row, "end_ts")}];
  }

  edadb::SchemaPtr readings_schema_;
  edadb::SchemaPtr hot_schema_;
  std::vector<edadb::RowId> hot_rows_;
  std::unique_ptr<edadb::StreamRuleBridge> bridge_;
  std::unique_ptr<edadb::WindowedAggregator> window_;
  std::unique_ptr<edadb::PatternMatcher> pattern_;
  std::unique_ptr<edadb::JournalEventSource> journal_;
  std::unique_ptr<edadb::QueryEventSource> query_;
  std::vector<Event> captured_;
  std::vector<Event> level_events_;
  Spans* spans_ = nullptr;
  Samples* alert_us_ = nullptr;
  int64_t completing_gen_ns_ = 0;
  std::vector<uint8_t> row_captures_;
  std::vector<uint8_t> hot_captures_;
  uint64_t stray_captures_ = 0;
  std::map<WindowKey, WindowAgg> windows_;
  std::map<MatchKey, int> matches_;
  uint64_t window_results_malformed_ = 0;
  uint64_t push_errors_ = 0;
  uint64_t results_emitted_ = 0;
  uint64_t bus_deliveries_ = 0;
  uint64_t polls_ = 0;
  uint64_t journal_events_ = 0;
  uint64_t rows_written_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCaptureCq(const Options& options) {
  return std::make_unique<CaptureCq>(options);
}

}  // namespace edabench
