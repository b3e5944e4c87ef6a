// Torn-tail regression sweep: a crash can cut a WAL segment at ANY byte
// of the frame being written. Recovery must drop exactly the torn final
// record — never a preceding intact one, never accept a partial frame.

#include <string>

#include "common/failpoint.h"
#include "gtest/gtest.h"
#include "storage/file.h"
#include "storage/wal.h"
#include "test_util.h"
#include "testing/require_failpoints.h"

namespace edadb {
namespace {

WalOptions Opts(const std::string& dir) {
  WalOptions options;
  options.dir = dir;
  options.sync_policy = WalSyncPolicy::kNever;
  return options;
}

// Truncates the single segment at every byte offset within the final
// frame and reopens. Each cut must drop exactly the torn record: the
// two intact records survive, next_lsn rewinds to the pre-torn end.
TEST(WalTornTailTest, EveryCutOffsetOfFinalFrameDropsExactlyThatRecord) {
  TempDir dir;
  Lsn keep_end = 0;
  size_t base_size = 0;
  std::string full;
  const std::string seg = dir.path() + "/" + WalSegmentName(0);
  {
    auto writer = *WalWriter::Open(Opts(dir.path()));
    ASSERT_OK(writer->Append(1, "first intact record"));
    ASSERT_OK(writer->Append(2, "second intact record"));
    keep_end = writer->next_lsn();
    base_size = ReadFileToString(seg)->size();
    ASSERT_OK(writer->Append(3, "the record that gets torn"));
    full = *ReadFileToString(seg);
  }
  const size_t frame_bytes = full.size() - base_size;
  ASSERT_GT(frame_bytes, kWalHeaderSize);  // Sanity: header + payload.

  for (size_t cut = 0; cut < frame_bytes; ++cut) {
    ASSERT_OK(WriteStringToFile(seg, full.substr(0, base_size + cut),
                                /*sync=*/false));
    auto reopened = WalWriter::Open(Opts(dir.path()));
    ASSERT_TRUE(reopened.ok()) << "cut at offset " << cut;
    EXPECT_EQ((*reopened)->next_lsn(), keep_end)
        << "cut at offset " << cut << " of " << frame_bytes
        << " did not drop exactly the torn record";

    WalCursor cursor(dir.path(), 0);
    WalRecordView entry;
    ASSERT_TRUE(*cursor.Next(&entry)) << "cut at offset " << cut;
    EXPECT_EQ(entry.payload, "first intact record");
    ASSERT_TRUE(*cursor.Next(&entry)) << "cut at offset " << cut;
    EXPECT_EQ(entry.payload, "second intact record");
    EXPECT_FALSE(*cursor.Next(&entry)) << "cut at offset " << cut;
  }
}

// The same sweep with the torn record placed across the edge of the
// cursor's first read-ahead chunk (kWalReadAheadBytes), so each cut
// falls before, at or past that edge; the writer resumes from the
// replaying cursor instead of scanning the segment itself.
TEST(WalTornTailTest, EveryCutOffsetAcrossTheReadAheadEdge) {
  for (const size_t before : {size_t{4}, size_t{20}}) {
    TempDir dir;
    Lsn keep_end = 0;
    std::string full;
    const std::string seg = dir.path() + "/" + WalSegmentName(0);
    {
      auto writer = *WalWriter::Open(Opts(dir.path()));
      ASSERT_OK(writer->Append(1, "first intact record"));
      // Pads the log so the torn record starts `before` bytes ahead of
      // the edge.
      const size_t pad = kWalReadAheadBytes - before -
                         static_cast<size_t>(writer->next_lsn()) -
                         kWalHeaderSize;
      ASSERT_OK(writer->Append(2, std::string(pad, 'p')));
      keep_end = writer->next_lsn();
      ASSERT_EQ(keep_end, kWalReadAheadBytes - before);
      ASSERT_OK(writer->Append(3, "the record that gets torn"));
      full = *ReadFileToString(seg);
    }
    const size_t frame_bytes = full.size() - keep_end;
    for (size_t cut = 0; cut < frame_bytes; ++cut) {
      SCOPED_TRACE("before " + std::to_string(before) + " cut " +
                   std::to_string(cut));
      ASSERT_OK(WriteStringToFile(seg, full.substr(0, keep_end + cut),
                                  /*sync=*/false));
      WalCursor cursor(dir.path(), 0);
      WalRecordView entry;
      ASSERT_TRUE(*cursor.Next(&entry));
      EXPECT_EQ(entry.payload, "first intact record");
      ASSERT_TRUE(*cursor.Next(&entry));
      EXPECT_EQ(entry.type, 2);
      EXPECT_FALSE(*cursor.Next(&entry));
      EXPECT_EQ(cursor.position(), keep_end);

      auto reopened = WalWriter::Open(Opts(dir.path()), &cursor);
      ASSERT_OK(reopened);
      EXPECT_EQ((*reopened)->next_lsn(), keep_end);
      EXPECT_EQ(ReadFileToString(seg)->size(), keep_end);
    }
  }
}

// Same property driven through the failpoint instead of manual file
// surgery: "wal.append.torn" persists only the first `arg` bytes of the
// frame and fails the append, exactly like a crash mid-write.
TEST(WalTornTailTest, TornAppendFailpointLeavesRecoverablePrefix) {
  EDADB_REQUIRE_FAILPOINTS();
  for (const int64_t prefix : {0, 1, 8, 9, 13, 1000}) {
    TempDir dir;
    Lsn keep_end = 0;
    {
      auto writer = *WalWriter::Open(Opts(dir.path()));
      ASSERT_OK(writer->Append(1, "durable"));
      keep_end = writer->next_lsn();

      failpoint::Action torn;
      torn.kind = failpoint::ActionKind::kReturnStatus;
      torn.arg = prefix;
      torn.max_fires = 1;
      failpoint::Arm("wal.append.torn", torn);
      const Status s = writer->Append(2, "doomed write").status();
      failpoint::DisarmAll();
      ASSERT_FALSE(s.ok()) << "prefix " << prefix;
      // Writer state must not have advanced past the failed append.
      EXPECT_EQ(writer->next_lsn(), keep_end);
    }
    auto reopened = WalWriter::Open(Opts(dir.path()));
    ASSERT_TRUE(reopened.ok()) << "prefix " << prefix;
    // A prefix >= the full frame persists a complete, valid record; the
    // caller saw a failure, and recovery keeping the record is the
    // standard "commit reported as error but actually durable" case.
    // Any shorter prefix must be dropped.
    const Lsn recovered = (*reopened)->next_lsn();
    if (recovered != keep_end) {
      EXPECT_EQ(prefix, 1000) << "short torn prefix survived recovery";
    }

    WalCursor cursor(dir.path(), 0);
    WalRecordView entry;
    ASSERT_TRUE(*cursor.Next(&entry)) << "prefix " << prefix;
    EXPECT_EQ(entry.payload, "durable");
  }
}

}  // namespace
}  // namespace edadb
