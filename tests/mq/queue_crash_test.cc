// Crash-window regressions for the queue persistence path, driven by
// failpoints. The headline bug: FinishDelivery deletes the delivery row
// and the message row in two separate auto-commit transactions, so a
// crash between them used to strand a fully-acked message body on disk
// forever. Reattach now garbage-collects such orphans.

#include <memory>
#include <string>
#include <utility>

#include "common/clock.h"
#include "common/failpoint.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "mq/queue_manager.h"
#include "test_util.h"
#include "testing/crash_harness.h"
#include "testing/require_failpoints.h"

namespace fp = edadb::failpoint;
using edadb::Database;
using edadb::DatabaseOptions;
using edadb::DequeueRequest;
using edadb::EnqueueRequest;
using edadb::kMicrosPerHour;
using edadb::kMicrosPerSecond;
using edadb::QueueManager;
using edadb::SimulatedClock;
using edadb::TempDir;
using edadb::WalSyncPolicy;
using edadb::testing::ArmCrash;
using edadb::testing::FailpointGuard;
using edadb::testing::SimulatedCrash;

namespace {

class QueueCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EDADB_REQUIRE_FAILPOINTS();
    Reopen();
    ASSERT_OK(queues_->CreateQueue("q"));
  }

  void Reopen() {
    queues_.reset();
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.clock = &clock_;
    auto db = Database::Open(std::move(options));
    ASSERT_OK(db.status());
    db_ = *std::move(db);
    auto queues = QueueManager::Attach(db_.get());
    ASSERT_OK(queues.status());
    queues_ = *std::move(queues);
  }

  EnqueueRequest Req(const std::string& payload) {
    EnqueueRequest request;
    request.payload = payload;
    return request;
  }

  /// Runs `op`, expecting the armed failpoint to kill it; disarms and
  /// "restarts the process".
  template <typename Op>
  void CrashDuring(Op op) {
    bool crashed = false;
    try {
      op();
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    EXPECT_TRUE(crashed) << "armed failpoint never fired";
    fp::DisarmAll();
    Reopen();
  }

  size_t MsgRows() { return *db_->CountRows("__q_q_msgs"); }
  size_t DlvRows() { return *db_->CountRows("__q_q_dlv"); }

  FailpointGuard guard_;
  TempDir dir_;
  SimulatedClock clock_{kMicrosPerHour};
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueueManager> queues_;
  DequeueRequest dq_;
};

TEST_F(QueueCrashTest, AckCrashBetweenDeletesIsRepairedOnReattach) {
  ASSERT_OK(queues_->Enqueue("q", Req("acked")).status());
  auto msg = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(msg.has_value());

  ArmCrash("mq.finish.after_dlv_delete");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Ack("q", "", msg->id),
                        "the armed crash fires before Ack returns");
  });

  // The delivery row died before the crash; reattach must have GC'd the
  // orphaned message body rather than leaking it forever.
  EXPECT_EQ(0u, DlvRows());
  EXPECT_EQ(0u, MsgRows()) << "orphaned message row leaked";
  EXPECT_EQ(0u, *queues_->Depth("q", ""));

  // And the acked message is never redelivered, even after timeouts.
  clock_.AdvanceMicros(120 * kMicrosPerSecond);
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
}

TEST_F(QueueCrashTest, DequeueCrashBeforeLockPersistRedeliversFresh) {
  ASSERT_OK(queues_->Enqueue("q", Req("unlucky")).status());
  ArmCrash("mq.dequeue.before_lock_persist");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Dequeue("q", dq_),
                        "the armed crash fires before Dequeue returns");
  });

  // The lock was never persisted, so recovery sees a ready message and
  // the aborted delivery attempt does not count.
  auto msg = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "unlucky");
  EXPECT_EQ(msg->delivery_count, 1);
}

TEST_F(QueueCrashTest, EnqueueCrashBeforeCommitLeavesNoGhost) {
  ArmCrash("mq.enqueue.before_commit");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Enqueue("q", Req("ghost")),
                        "the armed crash fires before Enqueue returns");
  });

  EXPECT_EQ(0u, MsgRows());
  EXPECT_EQ(0u, DlvRows());
  EXPECT_EQ(0u, *queues_->Depth("q", ""));
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
}

TEST_F(QueueCrashTest, NackCrashBeforePersistKeepsMessageDeliverable) {
  ASSERT_OK(queues_->Enqueue("q", Req("retry me")).status());
  auto msg = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(msg.has_value());

  ArmCrash("mq.nack.before_persist");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Nack("q", "", msg->id),
                        "the armed crash fires before Nack returns");
  });

  // The nack never landed: the dequeue lock still holds...
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
  // ...until the visibility timeout redelivers, at-least-once intact.
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  auto redelivered = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(redelivered.has_value());
  EXPECT_EQ(redelivered->payload, "retry me");
  EXPECT_EQ(redelivered->delivery_count, 2);
}

}  // namespace
