#include "mq/propagation.h"

#include "common/failpoint.h"
#include "mq/queue_manager.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/require_failpoints.h"

namespace edadb {
namespace {

class PropagationTest : public testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.clock = &clock_;
    clock_.SetMicros(kMicrosPerHour);
    db_ = *Database::Open(std::move(options));
    queues_ = *QueueManager::Attach(db_.get());
    propagator_ = std::make_unique<Propagator>(queues_.get());
    ASSERT_TRUE(queues_->CreateQueue("source").ok());
    ASSERT_TRUE(queues_->CreateQueue("dest").ok());
  }

  EnqueueRequest Req(const std::string& payload, int64_t severity = 5) {
    EnqueueRequest request;
    request.payload = payload;
    request.attributes = {{"severity", Value::Int64(severity)}};
    return request;
  }

  TempDir dir_;
  SimulatedClock clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueueManager> queues_;
  std::unique_ptr<Propagator> propagator_;
};

TEST_F(PropagationTest, ForwardsBetweenQueues) {
  PropagationRule rule;
  rule.name = "fwd";
  rule.source_queue = "source";
  rule.destination_queue = "dest";
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("m1")).status());
  ASSERT_OK(queues_->Enqueue("source", Req("m2")).status());
  EXPECT_EQ(*propagator_->RunOnce(), 2u);
  DequeueRequest dq;
  EXPECT_EQ((*queues_->Dequeue("dest", dq))->payload, "m1");
  EXPECT_EQ((*queues_->Dequeue("dest", dq))->payload, "m2");
  EXPECT_FALSE(queues_->Dequeue("source", dq)->has_value());
  auto stats = *propagator_->GetStats("fwd");
  EXPECT_EQ(stats.forwarded, 2u);
}

TEST_F(PropagationTest, FilterDropsNonCritical) {
  PropagationRule rule;
  rule.name = "critical_only";
  rule.source_queue = "source";
  rule.destination_queue = "dest";
  rule.filter = *Predicate::Compile("severity >= 7");
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("noise", 2)).status());
  ASSERT_OK(queues_->Enqueue("source", Req("alert", 9)).status());
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  DequeueRequest dq;
  auto msg = *queues_->Dequeue("dest", dq);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "alert");
  auto stats = *propagator_->GetStats("critical_only");
  EXPECT_EQ(stats.dropped, 1u);
}

TEST_F(PropagationTest, TransformRewritesMessages) {
  PropagationRule rule;
  rule.name = "xform";
  rule.source_queue = "source";
  rule.destination_queue = "dest";
  rule.transform = [](const Message& message) {
    EnqueueRequest out;
    out.payload = "wrapped(" + message.payload + ")";
    out.priority = 9;
    return out;
  };
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("inner")).status());
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  DequeueRequest dq;
  auto msg = *queues_->Dequeue("dest", dq);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "wrapped(inner)");
  EXPECT_EQ(msg->priority, 9);
}

TEST_F(PropagationTest, DeliversToExternalService) {
  SimulatedExternalService service("gateway", {}, &clock_);
  PropagationRule rule;
  rule.name = "to_gateway";
  rule.source_queue = "source";
  rule.external = &service;
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("hello")).status());
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  EXPECT_EQ(service.delivered_count(), 1u);
  ASSERT_EQ(service.delivered().size(), 1u);
  EXPECT_EQ(service.delivered()[0].payload, "hello");
}

TEST_F(PropagationTest, ExternalFailureNacksAndRetries) {
  SimulatedExternalService::Options fail_options;
  fail_options.failure_probability = 1.0;
  SimulatedExternalService flaky("flaky", fail_options, &clock_);
  PropagationRule rule;
  rule.name = "to_flaky";
  rule.source_queue = "source";
  rule.external = &flaky;
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("stubborn")).status());
  EXPECT_EQ(*propagator_->RunOnce(), 0u);
  EXPECT_EQ((*propagator_->GetStats("to_flaky")).failed, 1u);
  // Message is redeliverable: still in the source queue after unlock.
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_EQ(*queues_->Depth("source", ""), 1u);
}

TEST_F(PropagationTest, MultiHopChain) {
  ASSERT_TRUE(queues_->CreateQueue("middle").ok());
  PropagationRule hop1;
  hop1.name = "hop1";
  hop1.source_queue = "source";
  hop1.destination_queue = "middle";
  PropagationRule hop2;
  hop2.name = "hop2";
  hop2.source_queue = "middle";
  hop2.destination_queue = "dest";
  ASSERT_OK(propagator_->AddRule(std::move(hop1)));
  ASSERT_OK(propagator_->AddRule(std::move(hop2)));
  ASSERT_OK(queues_->Enqueue("source", Req("traveler")).status());
  // Rules run alphabetically; one RunOnce can move through both hops.
  ASSERT_OK(propagator_->RunOnce().status());
  ASSERT_OK(propagator_->RunOnce().status());
  DequeueRequest dq;
  EXPECT_TRUE(queues_->Dequeue("dest", dq)->has_value());
}

TEST_F(PropagationTest, RuleValidation) {
  PropagationRule no_dest;
  no_dest.name = "bad";
  no_dest.source_queue = "source";
  EXPECT_TRUE(propagator_->AddRule(no_dest).IsInvalidArgument());

  SimulatedExternalService service("svc", {}, &clock_);
  PropagationRule both;
  both.name = "bad2";
  both.source_queue = "source";
  both.destination_queue = "dest";
  both.external = &service;
  EXPECT_TRUE(propagator_->AddRule(both).IsInvalidArgument());

  PropagationRule missing_source;
  missing_source.name = "bad3";
  missing_source.source_queue = "ghost";
  missing_source.destination_queue = "dest";
  EXPECT_TRUE(propagator_->AddRule(missing_source).IsNotFound());

  EXPECT_TRUE(propagator_->RemoveRule("ghost").IsNotFound());
}

TEST_F(PropagationTest, DedicatedConsumerGroupLeavesDefaultAlone) {
  // Propagation through its own group: a direct consumer of the default
  // group still sees the message... (source has explicit groups now, so
  // default "" is replaced; use another explicit group).
  ASSERT_OK(queues_->AddConsumerGroup("source", "app"));
  PropagationRule rule;
  rule.name = "fwd";
  rule.source_queue = "source";
  rule.source_group = "mirror";
  rule.destination_queue = "dest";
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("both")).status());
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  // The "app" group still has its copy.
  DequeueRequest app;
  app.group = "app";
  EXPECT_TRUE(queues_->Dequeue("source", app)->has_value());
}

TEST_F(PropagationTest, InjectedExternalFaultNacksWithoutTouchingService) {
  EDADB_REQUIRE_FAILPOINTS();
  SimulatedExternalService service("gateway", {}, &clock_);
  PropagationRule rule;
  rule.name = "to_gateway";
  rule.source_queue = "source";
  rule.external = &service;
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("fragile")).status());

  // "mq.propagate.deliver" models the external endpoint dying (network
  // error / timeout) before the request reaches it.
  failpoint::Action fault;
  fault.max_fires = 1;
  failpoint::Arm("mq.propagate.deliver", fault);
  EXPECT_EQ(*propagator_->RunOnce(), 0u);
  failpoint::DisarmAll();

  // The failure never reached the simulated service, and the message
  // was nacked, not lost.
  EXPECT_EQ(service.delivered_count(), 0u);
  EXPECT_EQ((*propagator_->GetStats("to_gateway")).failed, 1u);

  // After the fault clears and the lock expires, delivery succeeds.
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  ASSERT_EQ(service.delivered().size(), 1u);
  EXPECT_EQ(service.delivered()[0].payload, "fragile");
}

TEST_F(PropagationTest, InjectedExternalTimeoutUsesTimedOutStatus) {
  EDADB_REQUIRE_FAILPOINTS();
  SimulatedExternalService service("gateway", {}, &clock_);
  PropagationRule rule;
  rule.name = "to_gateway";
  rule.source_queue = "source";
  rule.external = &service;
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("slow")).status());

  // An OK status in the armed action selects the injected-timeout
  // flavor (the site substitutes TimedOut for "no response").
  failpoint::Action fault;
  fault.status = Status::OK();
  fault.max_fires = 1;
  failpoint::Arm("mq.propagate.deliver", fault);
  EXPECT_EQ(*propagator_->RunOnce(), 0u);
  failpoint::DisarmAll();
  EXPECT_EQ(service.delivered_count(), 0u);
  EXPECT_EQ((*propagator_->GetStats("to_gateway")).failed, 1u);
}

}  // namespace
}  // namespace edadb
