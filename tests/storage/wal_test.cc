#include "storage/wal.h"

#include <fstream>

#include "common/random.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace edadb {
namespace {

WalOptions Opts(const std::string& dir,
                uint64_t segment_size = 16 * 1024 * 1024) {
  WalOptions options;
  options.dir = dir;
  options.segment_size_bytes = segment_size;
  options.sync_policy = WalSyncPolicy::kNever;
  return options;
}

TEST(WalSegmentNameTest, RoundTrip) {
  EXPECT_EQ(ParseWalSegmentName(WalSegmentName(0)), 0u);
  EXPECT_EQ(ParseWalSegmentName(WalSegmentName(123456789)), 123456789u);
  EXPECT_EQ(ParseWalSegmentName("not-a-segment"), kInvalidLsn);
  EXPECT_EQ(ParseWalSegmentName("wal-.log"), kInvalidLsn);
  EXPECT_EQ(ParseWalSegmentName("wal-12x.log"), kInvalidLsn);
}

TEST(WalTest, AppendAndReadBack) {
  TempDir dir;
  auto writer = *WalWriter::Open(Opts(dir.path()));
  const Lsn lsn1 = *writer->Append(1, "first");
  const Lsn lsn2 = *writer->Append(2, "second");
  EXPECT_EQ(lsn1, 0u);
  EXPECT_EQ(lsn2, kWalHeaderSize + 5);

  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.lsn, lsn1);
  EXPECT_EQ(entry.type, 1);
  EXPECT_EQ(entry.payload, "first");
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.lsn, lsn2);
  EXPECT_EQ(entry.payload, "second");
  EXPECT_FALSE(*cursor.Next(&entry));  // Caught up.
}

TEST(WalTest, EmptyPayloadAndBinaryPayload) {
  TempDir dir;
  auto writer = *WalWriter::Open(Opts(dir.path()));
  ASSERT_OK(writer->Append(7, ""));
  const std::string binary("\x00\xff\x00 payload", 12);
  ASSERT_OK(writer->Append(8, binary));
  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "");
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, binary);
}

TEST(WalTest, CursorTailsLiveWrites) {
  TempDir dir;
  auto writer = *WalWriter::Open(Opts(dir.path()));
  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  EXPECT_FALSE(*cursor.Next(&entry));  // Nothing yet.
  ASSERT_OK(writer->Append(1, "late arrival"));
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "late arrival");
  EXPECT_FALSE(*cursor.Next(&entry));
  ASSERT_OK(writer->Append(1, "even later"));
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "even later");
}

TEST(WalTest, RollsSegmentsAndCursorFollows) {
  TempDir dir;
  // Tiny segments force several rolls.
  auto writer = *WalWriter::Open(Opts(dir.path(), 64));
  std::vector<Lsn> lsns;
  for (int i = 0; i < 50; ++i) {
    lsns.push_back(*writer->Append(3, "payload-" + std::to_string(i)));
  }
  // More than one segment must exist.
  size_t segments = 0;
  const std::vector<std::string> names = *ListDir(dir.path());
  for (const std::string& name : names) {
    if (ParseWalSegmentName(name) != kInvalidLsn) ++segments;
  }
  EXPECT_GT(segments, 3u);

  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(*cursor.Next(&entry)) << i;
    EXPECT_EQ(entry.lsn, lsns[static_cast<size_t>(i)]);
    EXPECT_EQ(entry.payload, "payload-" + std::to_string(i));
  }
  EXPECT_FALSE(*cursor.Next(&entry));
}

TEST(WalTest, CursorStartsFromWatermark) {
  TempDir dir;
  auto writer = *WalWriter::Open(Opts(dir.path(), 64));
  Lsn middle = 0;
  for (int i = 0; i < 20; ++i) {
    const Lsn lsn = *writer->Append(1, "rec" + std::to_string(i));
    if (i == 10) middle = lsn;
  }
  WalCursor cursor(dir.path(), middle);
  WalRecordView entry;
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "rec10");
}

TEST(WalTest, ReopenContinuesLsnSequence) {
  TempDir dir;
  Lsn next;
  {
    auto writer = *WalWriter::Open(Opts(dir.path()));
    ASSERT_OK(writer->Append(1, "before reopen"));
    next = writer->next_lsn();
  }
  auto writer = *WalWriter::Open(Opts(dir.path()));
  EXPECT_EQ(writer->next_lsn(), next);
  const Lsn lsn = *writer->Append(1, "after reopen");
  EXPECT_EQ(lsn, next);

  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "before reopen");
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "after reopen");
}

TEST(WalTest, TornTailIsTruncatedOnReopen) {
  TempDir dir;
  Lsn keep_end;
  {
    auto writer = *WalWriter::Open(Opts(dir.path()));
    ASSERT_OK(writer->Append(1, "keep me"));
    keep_end = writer->next_lsn();
    ASSERT_OK(writer->Append(1, "torn record"));
  }
  // Chop bytes off the tail, simulating a crash mid-write.
  const std::string seg = dir.path() + "/" + WalSegmentName(0);
  std::string data = *ReadFileToString(seg);
  data.resize(data.size() - 5);
  ASSERT_OK(WriteStringToFile(seg, data, false));

  auto writer = *WalWriter::Open(Opts(dir.path()));
  EXPECT_EQ(writer->next_lsn(), keep_end);  // Tail dropped.
  ASSERT_OK(writer->Append(1, "replacement"));

  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "keep me");
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "replacement");
  EXPECT_FALSE(*cursor.Next(&entry));
}

TEST(WalTest, CorruptMiddleRecordIsDetectedOnReopen) {
  TempDir dir;
  {
    auto writer = *WalWriter::Open(Opts(dir.path()));
    ASSERT_OK(writer->Append(1, "aaaa"));
    ASSERT_OK(writer->Append(1, "bbbb"));
  }
  // Flip a payload byte of the first record.
  const std::string seg = dir.path() + "/" + WalSegmentName(0);
  std::string data = *ReadFileToString(seg);
  data[kWalHeaderSize] ^= 0x40;
  ASSERT_OK(WriteStringToFile(seg, data, false));

  // Reopen treats everything from the corrupt record on as torn tail.
  auto writer = *WalWriter::Open(Opts(dir.path()));
  EXPECT_EQ(writer->next_lsn(), 0u);
}

TEST(WalTest, TruncateBeforeDropsWholeOldSegments) {
  TempDir dir;
  auto writer = *WalWriter::Open(Opts(dir.path(), 64));
  Lsn late = 0;
  for (int i = 0; i < 40; ++i) {
    late = *writer->Append(1, "record-" + std::to_string(i));
  }
  ASSERT_OK(writer->TruncateBefore(late));
  // A cursor from the surviving segment boundary still reads the tail.
  Lsn first_surviving = kInvalidLsn;
  const std::vector<std::string> names = *ListDir(dir.path());
  for (const std::string& name : names) {
    const Lsn start = ParseWalSegmentName(name);
    if (start != kInvalidLsn && start < first_surviving) {
      first_surviving = start;
    }
  }
  EXPECT_GT(first_surviving, 0u);  // Some prefix was removed.
  WalCursor cursor(dir.path(), first_surviving);
  WalRecordView entry;
  size_t read = 0;
  while (*cursor.Next(&entry)) ++read;
  EXPECT_GT(read, 0u);
  EXPECT_EQ(cursor.position(), writer->next_lsn());
}

TEST(WalTest, SyncPoliciesWriteIdenticalContent) {
  for (const WalSyncPolicy policy :
       {WalSyncPolicy::kNever, WalSyncPolicy::kOnCommit,
        WalSyncPolicy::kEveryAppend}) {
    TempDir dir;
    WalOptions options = Opts(dir.path());
    options.sync_policy = policy;
    auto writer = *WalWriter::Open(std::move(options));
    ASSERT_OK(writer->Append(1, "alpha"));
    ASSERT_OK(writer->Sync());
    WalCursor cursor(dir.path(), 0);
    WalRecordView entry;
    ASSERT_TRUE(*cursor.Next(&entry));
    EXPECT_EQ(entry.payload, "alpha");
  }
}

TEST(WalTest, RandomizedAppendReadBack) {
  TempDir dir;
  Random rng(777);
  auto writer = *WalWriter::Open(Opts(dir.path(), 512));
  std::vector<std::pair<uint8_t, std::string>> written;
  for (int i = 0; i < 500; ++i) {
    const uint8_t type = static_cast<uint8_t>(rng.Uniform(250) + 1);
    std::string payload = rng.NextString(rng.Uniform(100));
    ASSERT_OK(writer->Append(type, payload));
    written.emplace_back(type, std::move(payload));
  }
  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  for (size_t i = 0; i < written.size(); ++i) {
    ASSERT_TRUE(*cursor.Next(&entry)) << i;
    EXPECT_EQ(entry.type, written[i].first);
    EXPECT_EQ(entry.payload, written[i].second);
  }
  EXPECT_FALSE(*cursor.Next(&entry));
}

}  // namespace
}  // namespace edadb
