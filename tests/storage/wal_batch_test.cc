// AppendBatch / SyncTo / group-commit coverage: the batch path must be
// byte-identical to sequential Append calls, roll segments mid-batch,
// and honor the durable watermark contract under concurrent committers.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/wal.h"
#include "test_util.h"
#include "testing/seeded_rng.h"

namespace edadb {
namespace {

WalOptions Opts(const std::string& dir,
                uint64_t segment_size = 16 * 1024 * 1024,
                WalSyncPolicy policy = WalSyncPolicy::kNever) {
  WalOptions options;
  options.dir = dir;
  options.segment_size_bytes = segment_size;
  options.sync_policy = policy;
  return options;
}

std::string DirBytes(const std::string& dir) {
  std::string all;
  const std::vector<std::string> names = *ListDir(dir);
  std::vector<std::string> segments;
  for (const std::string& name : names) {
    if (ParseWalSegmentName(name) != kInvalidLsn) segments.push_back(name);
  }
  std::sort(segments.begin(), segments.end(),
            [](const std::string& a, const std::string& b) {
              return ParseWalSegmentName(a) < ParseWalSegmentName(b);
            });
  for (const std::string& name : segments) {
    all += *ReadFileToString(dir + "/" + name);
  }
  return all;
}

TEST(WalBatchTest, BatchIsByteIdenticalToSequentialAppends) {
  testing::SeededRng rng;
  for (const uint64_t segment_size : {64u, 256u, 4096u}) {
    TempDir batch_dir;
    TempDir loop_dir;
    std::vector<std::pair<uint8_t, std::string>> records;
    for (int i = 0; i < 40; ++i) {
      records.emplace_back(static_cast<uint8_t>(rng.Uniform(200) + 1),
                           rng.NextString(rng.Uniform(90)));
    }

    auto batch_writer = *WalWriter::Open(Opts(batch_dir.path(), segment_size));
    std::vector<WalRecordRef> batch;
    for (const auto& [type, payload] : records) {
      batch.push_back(WalRecordRef{type, payload});
    }
    const WalBatchResult result = *batch_writer->AppendBatch(batch);
    EXPECT_EQ(result.first_lsn, 0u);
    EXPECT_EQ(result.end_lsn, batch_writer->next_lsn());

    auto loop_writer = *WalWriter::Open(Opts(loop_dir.path(), segment_size));
    for (const auto& [type, payload] : records) {
      ASSERT_OK(loop_writer->Append(type, payload));
    }

    EXPECT_EQ(loop_writer->next_lsn(), batch_writer->next_lsn());
    EXPECT_EQ(DirBytes(batch_dir.path()), DirBytes(loop_dir.path()))
        << "segment_size=" << segment_size;
  }
}

TEST(WalBatchTest, EmptyBatchIsANoOp) {
  TempDir dir;
  auto writer = *WalWriter::Open(Opts(dir.path()));
  const WalBatchResult result = *writer->AppendBatch({});
  EXPECT_EQ(result.first_lsn, 0u);
  EXPECT_EQ(result.end_lsn, 0u);
  EXPECT_EQ(writer->next_lsn(), 0u);
}

TEST(WalBatchTest, RollsSegmentMidBatchAndReadsBack) {
  TempDir dir;
  auto writer = *WalWriter::Open(Opts(dir.path(), 64));
  std::vector<std::string> payloads;
  std::vector<WalRecordRef> batch;
  for (int i = 0; i < 30; ++i) {
    payloads.push_back("mid-roll-payload-" + std::to_string(i));
  }
  for (const std::string& payload : payloads) {
    batch.push_back(WalRecordRef{5, payload});
  }
  ASSERT_OK(writer->AppendBatch(batch));

  size_t segments = 0;
  const std::vector<std::string> names = *ListDir(dir.path());
  for (const std::string& name : names) {
    if (ParseWalSegmentName(name) != kInvalidLsn) ++segments;
  }
  EXPECT_GT(segments, 2u);

  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  for (size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(*cursor.Next(&entry)) << i;
    EXPECT_EQ(entry.type, 5);
    EXPECT_EQ(entry.payload, payloads[i]);
  }
  EXPECT_FALSE(*cursor.Next(&entry));
}

TEST(WalBatchTest, SyncToAdvancesDurableWatermark) {
  TempDir dir;
  auto writer =
      *WalWriter::Open(Opts(dir.path(), 16 * 1024 * 1024,
                            WalSyncPolicy::kOnCommit));
  EXPECT_EQ(writer->durable_lsn(), 0u);
  std::vector<WalRecordRef> batch;
  const std::string payload = "durability target";
  for (int i = 0; i < 4; ++i) batch.push_back(WalRecordRef{1, payload});
  const WalBatchResult result = *writer->AppendBatch(batch);
  EXPECT_LT(writer->durable_lsn(), result.end_lsn);
  ASSERT_OK(writer->SyncTo(result.end_lsn));
  EXPECT_GE(writer->durable_lsn(), result.end_lsn);
  // A second barrier for an already-durable target is a fast no-op.
  ASSERT_OK(writer->SyncTo(result.first_lsn));
}

TEST(WalBatchTest, EveryAppendPolicySyncsTheBatch) {
  TempDir dir;
  auto writer =
      *WalWriter::Open(Opts(dir.path(), 16 * 1024 * 1024,
                            WalSyncPolicy::kEveryAppend));
  const std::string payload = "synced on append";
  ASSERT_OK(writer->AppendBatch({WalRecordRef{1, payload}}));
  EXPECT_EQ(writer->durable_lsn(), writer->next_lsn());
}

TEST(WalBatchTest, ConcurrentCommittersAllBecomeDurable) {
  TempDir dir;
  auto writer =
      *WalWriter::Open(Opts(dir.path(), 16 * 1024 * 1024,
                            WalSyncPolicy::kOnCommit));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        auto appended = writer->AppendBatch({WalRecordRef{2, payload}});
        if (!appended.ok()) {
          failures.fetch_add(1);
          return;
        }
        // The group-commit rendezvous: every thread demands its own
        // record durable; leaders' fdatasyncs cover followers.
        if (!writer->SyncTo(appended->end_lsn).ok() ||
            writer->durable_lsn() < appended->end_lsn) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  size_t read = 0;
  while (*cursor.Next(&entry)) ++read;
  EXPECT_EQ(read, static_cast<size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace edadb
