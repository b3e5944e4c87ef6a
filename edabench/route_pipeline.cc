// route_pipeline: routing-heavy. Eight rules route about half of the
// events onto four staging queues; each staging queue propagates to an
// outbound queue on the other shard (a cross-shard handoff), and the
// outbound queues propagate to an external sink the benchmark owns.
#include <algorithm>
#include <string>
#include <vector>

#include "harness.h"
#include "mq/propagation.h"

namespace edabench {
namespace {

using edadb::Event;
using edadb::Message;
using edadb::Status;
using edadb::Value;

constexpr uint64_t kBatch = 16;          // Events per IngestBatch.
constexpr uint64_t kPumpEvery = 32;      // Events between PumpOnce calls.
constexpr double kNominalEps = 17000;    // Sizes the fixed input.
constexpr int kRules = 8;
constexpr int kStages = 4;
// Generator-assigned event ids (they travel as the messages' correlation
// ids), independent of the process-wide id allocator's state.
constexpr uint64_t kIdBase = uint64_t{1} << 40;

const char* const kRegions[] = {"north", "south", "east", "west"};
const char* const kKinds[] = {"meter", "valve", "pump"};

struct Input {
  int64_t sev;     // 0..9
  int64_t region;  // index into kRegions
  int64_t kind;    // index into kKinds
  int64_t load;    // 0..99
  int64_t device;  // 0..63
};

/// The rule set, as expression text for the rules engine...
const char* const kConditions[kRules] = {
    "sev >= 8",
    "region = 'north' AND load > 70",
    "kind = 'valve' AND sev >= 5",
    "load < 10",
    "region = 'east' AND kind = 'pump'",
    "sev = 0 AND load > 50",
    "region = 'west' AND sev BETWEEN 3 AND 4",
    "kind = 'meter' AND load BETWEEN 40 AND 45",
};

/// ...and the same conditions in plain C++: the oracle for which
/// (event, rule) deliveries the sink must receive.
unsigned ExpectedRules(const Input& in) {
  const bool north = in.region == 0, east = in.region == 2,
             west = in.region == 3;
  const bool meter = in.kind == 0, valve = in.kind == 1, pump = in.kind == 2;
  const bool hit[kRules] = {
      in.sev >= 8,
      north && in.load > 70,
      valve && in.sev >= 5,
      in.load < 10,
      east && pump,
      in.sev == 0 && in.load > 50,
      west && in.sev >= 3 && in.sev <= 4,
      meter && in.load >= 40 && in.load <= 45,
  };
  unsigned mask = 0;
  for (int r = 0; r < kRules; ++r) {
    if (hit[r]) mask |= 1u << r;
  }
  return mask;
}

/// The external endpoint at the end of the second hop. Records every
/// (event, rule) arrival and its latency from the event's creation.
class Sink : public edadb::ExternalService {
 public:
  explicit Sink(std::vector<unsigned>* received) : received_(received) {}

  void set_alert_samples(Samples* alert_us) { alert_us_ = alert_us; }

  const std::string& name() const override { return name_; }

  Status Deliver(const Message& message) override {
    const int64_t now = NowNs();
    int64_t seq = -1, gen_ns = 0, rule = -1;
    for (const auto& [name, value] : message.attributes) {
      if (name == "seq") {
        seq = value.int64_value();
      } else if (name == "gen_ns") {
        gen_ns = value.int64_value();
      } else if (name == "matched_rule") {
        const std::string& id = value.string_value();
        if (id.size() == 2 && id[0] == 'r') rule = id[1] - '0';
      }
    }
    ++arrivals_;
    if (seq < 0 || seq >= static_cast<int64_t>(received_->size()) ||
        rule < 0 || rule >= kRules) {
      ++malformed_;
      return Status::OK();
    }
    unsigned& mask = (*received_)[static_cast<size_t>(seq)];
    if (mask & (1u << rule)) ++duplicates_;
    mask |= 1u << rule;
    if (alert_us_ != nullptr) alert_us_->Add((now - gen_ns) / 1000.0);
    return Status::OK();
  }

  uint64_t arrivals() const { return arrivals_; }
  uint64_t duplicates() const { return duplicates_; }
  uint64_t malformed() const { return malformed_; }

 private:
  const std::string name_ = "route_sink";
  std::vector<unsigned>* const received_;
  Samples* alert_us_ = nullptr;
  uint64_t arrivals_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t malformed_ = 0;
};

class RoutePipeline : public Workload {
 public:
  using Workload::Workload;
  ~RoutePipeline() override { Close(); }

  Status Setup(const std::string& dir) override {
    if (Status s = OpenProcessor(dir); !s.ok()) return s;
    edadb::ShardRouter* queues = processor_->queues();
    for (int k = 0; k < kStages; ++k) {
      const std::string stage = "stage_" + std::to_string(k);
      // The outbound queue must hash to the other shard, so the first
      // hop is a cross-shard handoff.
      std::string out;
      for (int v = 0;; ++v) {
        out = "outbound_" + std::to_string(k) + "_" + std::to_string(v);
        if (queues->HashShard(out) != queues->HashShard(stage)) break;
      }
      if (Status s = queues->CreateQueue(stage); !s.ok()) return s;
      if (Status s = queues->CreateQueue(out); !s.ok()) return s;
      if (queues->ShardOf(stage) == queues->ShardOf(out)) {
        return Status::Internal("stage and outbound queues share a shard");
      }
      edadb::PropagationRule hop;
      hop.name = "hop1_" + std::to_string(k);
      hop.source_queue = stage;
      hop.destination_queue = out;
      if (Status s = processor_->propagator()->AddRule(std::move(hop));
          !s.ok()) {
        return s;
      }
      edadb::PropagationRule deliver;
      deliver.name = "hop2_" + std::to_string(k);
      deliver.source_queue = out;
      deliver.external = &sink_;
      if (Status s = processor_->propagator()->AddRule(std::move(deliver));
          !s.ok()) {
        return s;
      }
      queue_names_.push_back(stage);
      queue_names_.push_back(out);
    }
    for (int r = 0; r < kRules; ++r) {
      // Rule ids r0..r7; the sink parses the digit back out.
      const std::string id(1, static_cast<char>('0' + r));
      std::string action = "queue:stage_";
      action += std::to_string(r % kStages);
      if (Status s = processor_->rules()->AddRule("r" + id, kConditions[r],
                                                  std::move(action));
          !s.ok()) {
        return s;
      }
    }
    return Status::OK();
  }

  Status Run(Spans* spans, RunOutput* out) override {
    const uint64_t per_round = RoundEvents(options_, kNominalEps, kPumpEvery);
    const uint64_t n = per_round * kRounds;
    Rng rng(options_.seed);
    std::vector<Input> inputs(n);
    std::vector<unsigned> expected(n);
    // Expected sink arrivals by the end of each round.
    std::vector<uint64_t> due(kRounds, 0);
    uint64_t expected_deliveries = 0;
    for (uint64_t i = 0; i < n; ++i) {
      inputs[i] = {rng.Below(10), rng.Below(4), rng.Below(3), rng.Below(100),
                   rng.Below(64)};
      expected[i] = ExpectedRules(inputs[i]);
      expected_deliveries +=
          static_cast<uint64_t>(__builtin_popcount(expected[i]));
      due[i / per_round] = expected_deliveries;
    }
    received_.assign(n, 0);
    out->ingest_us.Reserve(per_round / kBatch);
    out->alert_us.Reserve(per_round);
    sink_.set_alert_samples(&out->alert_us);
    std::vector<std::string> devices;
    for (int d = 0; d < 64; ++d) devices.push_back("dev-" + std::to_string(d));
    const std::string payload(48, 'p');

    uint64_t pumps = 0;
    double backlog_max = 0;
    const auto pump = [&]() -> edadb::Result<size_t> {
      if (spans->enabled()) backlog_max = std::max(backlog_max, Backlog());
      Span span(spans, "core.pump");
      ++pumps;
      return processor_->PumpOnce();
    };

    for (int round = 0; round < kRounds; ++round) {
      out->StartRound();
      for (uint64_t base = round * per_round; base < (round + 1) * per_round;
           base += kBatch) {
        std::vector<Event> batch(kBatch);
        for (uint64_t j = 0; j < kBatch; ++j) {
          const uint64_t seq = base + j;
          const Input& in = inputs[seq];
          Event& e = batch[j];
          e.id = kIdBase + seq;
          e.type = "reading";
          e.source = devices[static_cast<size_t>(in.device)];
          e.payload = payload;
          e.attributes = {
              {"seq", Value::Int64(static_cast<int64_t>(seq))},
              {"sev", Value::Int64(in.sev)},
              {"region", Value::String(kRegions[in.region])},
              {"kind", Value::String(kKinds[in.kind])},
              {"load", Value::Int64(in.load)},
              {"gen_ns", Value::Int64(NowNs())},
          };
        }
        const int64_t ingest_start = NowNs();
        {
          Span span(spans, "core.ingest_batch");
          if (Status s = processor_->IngestBatch(std::move(batch)); !s.ok()) {
            return s;
          }
        }
        out->ingest_us.Add((NowNs() - ingest_start) / 1000.0);
        if ((base + kBatch) % kPumpEvery == 0) {
          if (auto moved = pump(); !moved.ok()) return moved.status();
        }
      }
      // Drain: pump until every delivery due so far arrived, or nothing
      // moves any more.
      while (sink_.arrivals() < due[static_cast<size_t>(round)]) {
        auto moved = pump();
        if (!moved.ok()) return moved.status();
        if (*moved == 0) break;
      }
      out->EndRound(per_round);
    }

    // Output checks against the plain-C++ rule evaluation.
    out->attempted = n;
    uint64_t missing_events = 0, unexpected = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if ((expected[i] & ~received_[i]) != 0) ++missing_events;
      if ((received_[i] & ~expected[i]) != 0) ++unexpected;
    }
    out->Fail(missing_events, std::to_string(missing_events) +
                                  " events missing at least one delivery");
    if (unexpected > 0) {
      out->Problem(std::to_string(unexpected) +
                   " events delivered for rules they do not satisfy");
    }
    if (sink_.duplicates() > 0) {
      out->Problem(std::to_string(sink_.duplicates()) +
                   " duplicate (event, rule) deliveries");
    }
    if (sink_.malformed() > 0) {
      out->Problem(std::to_string(sink_.malformed()) +
                   " deliveries without seq or matched_rule");
    }

    double forwarded = 0;
    for (const std::string& rule : processor_->propagator()->ListRules()) {
      auto stats = processor_->propagator()->GetStats(rule);
      if (stats.ok()) forwarded += static_cast<double>(stats->forwarded);
    }
    out->layers["mq.propagated_per_pump"] =
        pumps > 0 ? forwarded / static_cast<double>(pumps) : 0;
    out->layers["mq.backlog_max"] = backlog_max;
    out->params = {{"events", static_cast<double>(n)},
                   {"batch", kBatch},
                   {"pump_every_events", kPumpEvery},
                   {"rules", kRules},
                   {"staging_queues", kStages},
                   {"shards", kShards},
                   {"expected_deliveries",
                    static_cast<double>(expected_deliveries)},
                   {"routed_event_fraction",
                    1.0 - static_cast<double>(std::count(expected.begin(),
                                                         expected.end(), 0u)) /
                              static_cast<double>(n)}};
    return Status::OK();
  }

  void CheckRecovered(edadb::EventProcessor* processor,
                      RunOutput* out) override {
    for (const std::string& queue : queue_names_) {
      auto depth = processor->queues()->Depth(queue, "");
      if (!depth.ok()) {
        out->Problem("depth of " + queue + " after recovery: " +
                     depth.status().ToString());
      } else if (*depth != 0) {
        out->Problem(queue + " holds " + std::to_string(*depth) +
                     " messages after recovery");
      }
    }
  }

 private:
  double Backlog() {
    double total = 0;
    for (const std::string& queue : queue_names_) {
      auto depth = processor_->queues()->Depth(queue, "");
      if (depth.ok()) total += static_cast<double>(*depth);
    }
    return total;
  }

  std::vector<unsigned> received_;
  std::vector<std::string> queue_names_;
  Sink sink_{&received_};
};

}  // namespace

std::unique_ptr<Workload> MakeRoutePipeline(const Options& options) {
  return std::make_unique<RoutePipeline>(options);
}

}  // namespace edabench
