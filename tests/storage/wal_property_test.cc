// WAL property tests: across random append/reopen/truncate/corruption
// histories, a cursor always reads exactly the surviving valid prefix
// (plus everything appended afterwards), in order, with correct
// payloads.

#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/wal.h"
#include "test_util.h"

namespace edadb {
namespace {

WalOptions Opts(const std::string& dir, uint64_t segment_size) {
  WalOptions options;
  options.dir = dir;
  options.segment_size_bytes = segment_size;
  options.sync_policy = WalSyncPolicy::kNever;
  return options;
}

TEST(WalProperty, ReopenCyclesPreserveEveryRecord) {
  Random rng(20070607);
  for (int trial = 0; trial < 10; ++trial) {
    TempDir dir;
    const uint64_t segment_size = 64 + rng.Uniform(512);
    std::vector<std::string> written;
    // Several writer lifetimes, each appending a random batch.
    for (int session = 0; session < 5; ++session) {
      auto writer = *WalWriter::Open(Opts(dir.path(), segment_size));
      const size_t batch = rng.Uniform(40) + 1;
      for (size_t i = 0; i < batch; ++i) {
        std::string payload = rng.NextString(rng.Uniform(60));
        ASSERT_TRUE(writer->Append(1, payload).ok());
        written.push_back(std::move(payload));
      }
    }
    WalCursor cursor(dir.path(), 0);
    WalRecordView entry;
    for (size_t i = 0; i < written.size(); ++i) {
      ASSERT_TRUE(*cursor.Next(&entry))
          << "trial " << trial << " record " << i;
      ASSERT_EQ(entry.payload, written[i]);
    }
    EXPECT_FALSE(*cursor.Next(&entry));
  }
}

TEST(WalProperty, RandomTailCutsRecoverLongestValidPrefix) {
  Random rng(424243);
  for (int trial = 0; trial < 15; ++trial) {
    TempDir dir;
    std::vector<Lsn> lsns;
    Lsn end_lsn = 0;
    {
      auto writer = *WalWriter::Open(Opts(dir.path(), 4096));
      for (int i = 0; i < 30; ++i) {
        lsns.push_back(*writer->Append(1, "record-" + std::to_string(i)));
      }
      end_lsn = writer->next_lsn();
    }
    // Cut a random number of bytes off the single segment's tail.
    const std::string segment = dir.path() + "/" + WalSegmentName(0);
    std::string bytes = *ReadFileToString(segment);
    const size_t cut = rng.Uniform(bytes.size()) + 1;
    bytes.resize(bytes.size() - cut);
    ASSERT_TRUE(WriteStringToFile(segment, bytes, false).ok());

    auto writer = *WalWriter::Open(Opts(dir.path(), 4096));
    // The writer resumed at some record boundary <= the cut point.
    const Lsn resumed = writer->next_lsn();
    EXPECT_LE(resumed, end_lsn - cut + lsns.size() * 0);  // <= old end.
    // It must be one of the original record boundaries (or 0).
    bool boundary = resumed == 0;
    for (const Lsn lsn : lsns) boundary = boundary || resumed == lsn;
    boundary = boundary || resumed == end_lsn;
    EXPECT_TRUE(boundary) << "resumed at " << resumed;

    // Cursor sees exactly the surviving prefix, then new appends.
    ASSERT_TRUE(writer->Append(2, "appended after cut").ok());
    WalCursor cursor(dir.path(), 0);
    WalRecordView entry;
    size_t index = 0;
    while (*cursor.Next(&entry)) {
      if (entry.type == 1) {
        ASSERT_LT(index, lsns.size());
        ASSERT_EQ(entry.lsn, lsns[index]);
        ASSERT_EQ(entry.payload, "record-" + std::to_string(index));
        ++index;
      } else {
        ASSERT_EQ(entry.payload, "appended after cut");
      }
    }
    EXPECT_EQ(index, static_cast<size_t>(
                         std::count_if(lsns.begin(), lsns.end(),
                                       [&](Lsn lsn) {
                                         return lsn < resumed;
                                       })));
  }
}

TEST(WalProperty, InterleavedWriteAndTailReads) {
  // The journal-miner pattern: a cursor interleaved with appends must
  // deliver every record exactly once, regardless of batch boundaries.
  Random rng(777777);
  TempDir dir;
  auto writer = *WalWriter::Open(Opts(dir.path(), 256));
  WalCursor cursor(dir.path(), 0);
  size_t written = 0;
  size_t read = 0;
  WalRecordView entry;
  for (int round = 0; round < 200; ++round) {
    const size_t appends = rng.Uniform(5);
    for (size_t i = 0; i < appends; ++i) {
      ASSERT_TRUE(
          writer->Append(1, "n" + std::to_string(written)).ok());
      ++written;
    }
    const size_t reads = rng.Uniform(7);
    for (size_t i = 0; i < reads; ++i) {
      auto more = cursor.Next(&entry);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      ASSERT_EQ(entry.payload, "n" + std::to_string(read));
      ++read;
    }
  }
  while (*cursor.Next(&entry)) {
    ASSERT_EQ(entry.payload, "n" + std::to_string(read));
    ++read;
  }
  EXPECT_EQ(read, written);
}

}  // namespace
}  // namespace edadb
