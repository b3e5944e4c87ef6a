// filter_fanout: matching-heavy, routing-light. A large indexed rule
// set runs beside EventBus predicate subscribers; about 1% of the
// events route, almost all to broker topics carrying many inline
// content subscriptions, a few durable ones and some live-ring
// subscribers that the generator polls.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "harness.h"
#include "mq/propagation.h"
#include "pubsub/broker.h"

namespace edabench {
namespace {

using edadb::Event;
using edadb::Publication;
using edadb::Status;
using edadb::Value;

constexpr uint64_t kBatch = 32;        // Events per IngestBatch.
constexpr uint64_t kPumpEvery = 256;   // Events between sink polls.
constexpr double kNominalEps = 220000; // Sizes the fixed input.
constexpr int kSymbols = 1000;
constexpr int kVenues = 8;
constexpr int kWatchRules = 2000;      // Non-routing, matched only.
constexpr int kSymbolSubs = 300;       // Inline: one symbol each.
constexpr int kPriceSubs = 100;        // Inline: venue topic, price, side.
constexpr int kDurableSubs = 4;
constexpr int kLiveSubs = 8;
constexpr int kBusSubs = 6;

struct Input {
  int64_t sym;    // 0..kSymbols-1
  int64_t px;     // 0..9999
  int64_t qty;    // 1..1000
  int64_t venue;  // 0..kVenues-1
  int64_t side;   // 0 = 'B', 1 = 'S'
};

std::string SymName(int64_t sym) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "S%04d", static_cast<int>(sym));
  return buf;
}

int64_t WatchThreshold(int rule) { return (rule * 7919) % 10000; }
int64_t SymbolSubSym(int k) { return (k * 37) % kSymbols; }
int64_t PriceSubThreshold(int k) { return (k * 613) % 10000; }

/// Plain-C++ forms of every filter below; the oracle for each sink.
bool Published(const Input& in) { return in.qty > 990; }
bool ToBlockDesk(const Input& in) { return in.qty == 1000 && in.side == 0; }
bool BusFilter(int b, const Input& in) {
  switch (b) {
    case 0: return in.px < 100;
    case 1: return in.venue == 3 && in.side == 1;
    case 2: return in.qty >= 500 && in.qty <= 510;
    case 3: return in.sym == 42;
    case 4: return in.px >= 9900 || in.qty <= 5;
    default: return true;
  }
}
const char* const kBusFilters[kBusSubs] = {
    "px < 100",
    "venue = 'V3' AND side = 'S'",
    "qty BETWEEN 500 AND 510",
    "sym = 'S0042'",
    "px >= 9900 OR qty <= 5",
    "",
};
bool DurableFilter(int d, const Input& in) {
  switch (d) {
    case 0: return in.px < 2500;
    case 1: return in.side == 0 && in.qty >= 995;
    case 2: return in.venue <= 1;
    default: return true;
  }
}
const char* const kDurableFilters[kDurableSubs] = {
    "px < 2500",
    "side = 'B' AND qty >= 995",
    "venue IN ('V0', 'V1')",
    "",
};
bool LiveFilter(int l, const Input& in) {
  return l < 4 ? in.venue == l : in.px > (l - 4) * 2500;
}

/// One benchmark-owned sink and the events it should still receive,
/// in order. The generator appends an event here before ingesting it
/// when the sink's plain-C++ filter accepts it; arrivals consume the
/// front, so memory stays bounded by the events in flight.
struct SinkLog {
  std::string name;
  std::deque<int64_t> pending;
  uint64_t unexpected = 0;  // Arrivals the filter rejects, or duplicates.
};

int64_t SeqOf(const edadb::AttributeList& attributes, int64_t* gen_ns) {
  int64_t seq = -1;
  for (const auto& [name, value] : attributes) {
    if (name == "seq") seq = value.int64_value();
    if (name == "gen_ns") *gen_ns = value.int64_value();
  }
  return seq;
}

class BlockDesk : public edadb::ExternalService {
 public:
  explicit BlockDesk(std::function<void(const edadb::AttributeList&)> record)
      : record_(std::move(record)) {}
  const std::string& name() const override { return name_; }
  Status Deliver(const edadb::Message& message) override {
    record_(message.attributes);
    return Status::OK();
  }

 private:
  const std::string name_ = "block_desk";
  std::function<void(const edadb::AttributeList&)> record_;
};

class FilterFanout : public Workload {
 public:
  using Workload::Workload;
  ~FilterFanout() override { Close(); }

  Status Setup(const std::string& dir) override {
    if (Status s = OpenProcessor(dir); !s.ok()) return s;
    edadb::RulesEngine* rules = processor_->rules();
    for (int i = 0; i < kWatchRules; ++i) {
      if (Status s = rules->AddRule(
              "watch_" + std::to_string(i),
              "sym = '" + SymName(i % kSymbols) +
                  "' AND px > " + std::to_string(WatchThreshold(i)),
              "watch");
          !s.ok()) {
        return s;
      }
    }
    for (int v = 0; v < kVenues; ++v) {
      if (Status s = rules->AddRule(
              "route_v" + std::to_string(v),
              "qty > 990 AND venue = 'V" + std::to_string(v) + "'",
              "topic:ticks.V" + std::to_string(v));
          !s.ok()) {
        return s;
      }
    }
    if (Status s = rules->AddRule("block", "qty = 1000 AND side = 'B'",
                                  "queue:blocks");
        !s.ok()) {
      return s;
    }
    if (Status s = processor_->queues()->CreateQueue("blocks"); !s.ok()) {
      return s;
    }
    edadb::PropagationRule deliver;
    deliver.name = "block_desk";
    deliver.source_queue = "blocks";
    deliver.external = &block_desk_;
    if (Status s = processor_->propagator()->AddRule(std::move(deliver));
        !s.ok()) {
      return s;
    }

    logs_.clear();
    for (int b = 0; b < kBusSubs; ++b) {
      const size_t log = AddLog("bus_" + std::to_string(b));
      std::optional<std::string> filter;
      if (kBusFilters[b][0] != '\0') filter = kBusFilters[b];
      auto handle = processor_->bus()->Subscribe(
          [this, log](const Event& event) {
            ++bus_deliveries_;
            int64_t gen_ns = 0;
            Consume(log, SeqOf(event.attributes, &gen_ns));
          },
          filter);
      if (!handle.ok()) return handle.status();
    }
    for (int k = 0; k < kSymbolSubs + kPriceSubs; ++k) {
      edadb::SubscriptionSpec spec;
      spec.subscriber = "inline_" + std::to_string(k);
      if (k < kSymbolSubs) {
        spec.topic_pattern = "ticks.*";
        spec.content_filter = "sym = '" + SymName(SymbolSubSym(k)) + "'";
      } else {
        const int p = k - kSymbolSubs;
        spec.topic_pattern = "ticks.V" + std::to_string(p % kVenues);
        spec.content_filter =
            "px > " + std::to_string(PriceSubThreshold(p)) + " AND side = '" +
            ((p / kVenues) % 2 == 0 ? "B" : "S") + "'";
      }
      const size_t log = AddLog(spec.subscriber);
      spec.handler = [this, log](const Publication& pub) {
        Arrive(log, pub.attributes);
      };
      auto id = processor_->broker()->Subscribe(std::move(spec));
      if (!id.ok()) return id.status();
    }
    durable_.clear();
    for (int d = 0; d < kDurableSubs; ++d) {
      edadb::SubscriptionSpec spec;
      spec.subscriber = "durable_" + std::to_string(d);
      spec.topic_pattern = "ticks.*";
      spec.content_filter = kDurableFilters[d];
      spec.durable = true;
      const size_t log = AddLog(spec.subscriber);
      auto id = processor_->broker()->Subscribe(std::move(spec));
      if (!id.ok()) return id.status();
      durable_.emplace_back(*id, log);
    }
    live_.clear();
    for (int l = 0; l < kLiveSubs; ++l) {
      edadb::LiveSubscriptionSpec spec;
      spec.subscriber = "live_" + std::to_string(l);
      if (l < 4) {
        spec.topic_pattern = "ticks.V" + std::to_string(l);
      } else {
        spec.topic_pattern = "ticks.*";
        spec.content_filter = "px > " + std::to_string((l - 4) * 2500);
      }
      const size_t log = AddLog(spec.subscriber);
      auto sub = processor_->broker()->SubscribeLive(spec);
      if (!sub.ok()) return sub.status();
      live_.emplace_back(*sub, log);
    }
    block_log_ = AddLog("block_desk");
    return Status::OK();
  }

  Status Run(Spans* spans, RunOutput* out) override {
    const uint64_t per_round = RoundEvents(options_, kNominalEps, kPumpEvery);
    const uint64_t n = per_round * kRounds;
    Rng rng(options_.seed);
    std::vector<std::string> syms;
    for (int s = 0; s < kSymbols; ++s) syms.push_back(SymName(s));
    const std::string payload(32, 'q');
    alert_us_ = &out->alert_us;
    failed_.assign(n, false);
    out->ingest_us.Reserve(per_round / kBatch);
    out->alert_us.Reserve(per_round / 8);  // ~8 arrivals per publication.
    const uint64_t matched_before = processor_->GetStats().rules_matched;
    uint64_t expected_matches = 0, publications = 0;

    std::vector<std::pair<uint64_t, Publication>> polled;
    // One sink round: pump propagation, drain every durable
    // subscription, poll every live cursor. Returns arrivals.
    const auto drain_sinks = [&]() -> edadb::Result<size_t> {
      size_t moved = 0;
      {
        Span span(spans, "core.pump");
        auto pumped = processor_->PumpOnce();
        if (!pumped.ok()) return pumped.status();
        moved += *pumped;
      }
      for (const auto& [id, log] : durable_) {
        for (;;) {
          edadb::Result<std::optional<Publication>> fetched =
              std::optional<Publication>();
          {
            Span span(spans, "pubsub.fetch");
            fetched = processor_->broker()->Fetch(id);
          }
          if (!fetched.ok()) return fetched.status();
          if (!fetched->has_value()) break;
          Arrive(log, (*fetched)->attributes);
          ++moved;
        }
      }
      for (const auto& [sub, log] : live_) {
        for (;;) {
          polled.clear();
          size_t got;
          {
            Span span(spans, "pubsub.live_poll");
            got = sub->Poll(256, &polled);
          }
          for (const auto& [seq, pub] : polled) Arrive(log, pub.attributes);
          moved += got;
          if (got == 0) break;
        }
      }
      return moved;
    };

    for (int round = 0; round < kRounds; ++round) {
      out->StartRound();
      for (uint64_t base = round * per_round; base < (round + 1) * per_round;
           base += kBatch) {
        std::vector<Event> batch(kBatch);
        for (uint64_t j = 0; j < kBatch; ++j) {
          const int64_t seq = static_cast<int64_t>(base + j);
          const Input in = {rng.Below(kSymbols), rng.Below(10000),
                            1 + rng.Below(1000), rng.Below(kVenues),
                            rng.Below(2)};
          expected_matches += Expect(seq, in);
          publications += Published(in) ? 1 : 0;
          Event& e = batch[j];
          e.type = "tick";
          e.source = "feed";
          e.payload = payload;
          e.attributes = {
              {"seq", Value::Int64(seq)},
              {"sym", Value::String(syms[static_cast<size_t>(in.sym)])},
              {"px", Value::Int64(in.px)},
              {"qty", Value::Int64(in.qty)},
              {"venue", Value::String("V" + std::to_string(in.venue))},
              {"side", Value::String(in.side == 0 ? "B" : "S")},
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
          if (auto moved = drain_sinks(); !moved.ok()) return moved.status();
        }
      }
      for (;;) {
        auto moved = drain_sinks();
        if (!moved.ok()) return moved.status();
        if (*moved == 0) break;
      }
      out->EndRound(per_round);
    }

    // An event still pending at a sink never reached it.
    for (SinkLog& log : logs_) {
      for (int64_t seq : log.pending) failed_[static_cast<size_t>(seq)] = true;
      if (log.unexpected > 0) {
        out->Problem(log.name + " received " +
                     std::to_string(log.unexpected) +
                     " events its filter rejects, duplicated or out of order");
      }
    }
    out->attempted = n;
    const uint64_t failed = static_cast<uint64_t>(
        std::count(failed_.begin(), failed_.end(), true));
    out->Fail(failed, std::to_string(failed) +
                          " events missing from a sink they should reach");
    // Every watch and routing rule the oracle says matched, the
    // processor must have counted.
    const uint64_t matched =
        processor_->GetStats().rules_matched - matched_before;
    if (matched != expected_matches) {
      out->Problem("rules matched " + std::to_string(matched) +
                   " times, plain evaluation says " +
                   std::to_string(expected_matches));
    }
    // DESIGN §13 accounting for every live cursor.
    for (const auto& [sub, log] : live_) {
      const uint64_t seen = sub->delivered() + sub->filtered() + sub->missed();
      if (seen != publications) {
        out->Problem(logs_[log].name + ": delivered + filtered + missed = " +
                     std::to_string(seen) + ", published " +
                     std::to_string(publications));
      }
    }
    out->layers["core.bus_deliveries"] = static_cast<double>(bus_deliveries_);
    out->params = {{"events", static_cast<double>(n)},
                   {"batch", kBatch},
                   {"sink_poll_every_events", kPumpEvery},
                   {"watch_rules", kWatchRules},
                   {"routing_rules", kVenues + 1},
                   {"bus_subscribers", kBusSubs},
                   {"inline_subscriptions", kSymbolSubs + kPriceSubs},
                   {"durable_subscriptions", kDurableSubs},
                   {"live_subscriptions", kLiveSubs},
                   {"shards", kShards},
                   {"publications", static_cast<double>(publications)},
                   {"routed_event_fraction",
                    static_cast<double>(publications) / static_cast<double>(n)}};
    return Status::OK();
  }

 private:
  size_t AddLog(std::string name) {
    logs_.push_back({std::move(name), {}, 0});
    return logs_.size() - 1;
  }

  /// Registers event `seq` with every sink whose plain-C++ filter
  /// accepts it (logs are in AddLog order: bus, inline, durable, live,
  /// block desk). Returns how many rules the event should match.
  uint64_t Expect(int64_t seq, const Input& in) {
    size_t log = 0;
    for (int b = 0; b < kBusSubs; ++b, ++log) {
      if (BusFilter(b, in)) logs_[log].pending.push_back(seq);
    }
    const bool published = Published(in);
    for (int k = 0; k < kSymbolSubs + kPriceSubs; ++k, ++log) {
      if (!published) continue;
      bool hit;
      if (k < kSymbolSubs) {
        hit = in.sym == SymbolSubSym(k);
      } else {
        const int p = k - kSymbolSubs;
        hit = in.venue == p % kVenues && in.px > PriceSubThreshold(p) &&
              in.side == (p / kVenues) % 2;
      }
      if (hit) logs_[log].pending.push_back(seq);
    }
    for (int d = 0; d < kDurableSubs; ++d, ++log) {
      if (published && DurableFilter(d, in)) logs_[log].pending.push_back(seq);
    }
    for (int l = 0; l < kLiveSubs; ++l, ++log) {
      if (published && LiveFilter(l, in)) logs_[log].pending.push_back(seq);
    }
    if (ToBlockDesk(in)) logs_[log].pending.push_back(seq);
    uint64_t matches = (published ? 1 : 0) + (ToBlockDesk(in) ? 1 : 0);
    for (int i = static_cast<int>(in.sym); i < kWatchRules; i += kSymbols) {
      if (in.px > WatchThreshold(i)) ++matches;
    }
    return matches;
  }

  /// An arrival must be the oldest event the sink still expects; any
  /// older pending event was skipped and failed.
  void Consume(size_t log, int64_t seq) {
    std::deque<int64_t>& pending = logs_[log].pending;
    while (!pending.empty() && pending.front() < seq) {
      failed_[static_cast<size_t>(pending.front())] = true;
      pending.pop_front();
    }
    if (!pending.empty() && pending.front() == seq) {
      pending.pop_front();
    } else {
      ++logs_[log].unexpected;
    }
  }

  void Arrive(size_t log, const edadb::AttributeList& attributes) {
    const int64_t now = NowNs();
    int64_t gen_ns = now;
    Consume(log, SeqOf(attributes, &gen_ns));
    if (alert_us_ != nullptr) alert_us_->Add((now - gen_ns) / 1000.0);
  }

  std::vector<SinkLog> logs_;
  std::vector<std::pair<std::string, size_t>> durable_;
  std::vector<std::pair<std::shared_ptr<edadb::LiveSubscription>, size_t>>
      live_;
  size_t block_log_ = 0;
  std::vector<bool> failed_;
  uint64_t bus_deliveries_ = 0;
  Samples* alert_us_ = nullptr;
  BlockDesk block_desk_{[this](const edadb::AttributeList& attributes) {
    Arrive(block_log_, attributes);
  }};
};

}  // namespace

std::unique_ptr<Workload> MakeFilterFanout(const Options& options) {
  return std::make_unique<FilterFanout>(options);
}

}  // namespace edabench
