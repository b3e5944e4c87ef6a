// The WalCursor read path: records are parsed in place from a read-ahead
// window, so every record must come back intact wherever it falls
// relative to a chunk boundary, whatever its size, and a cursor that has
// caught up must keep following the live log.

#include <algorithm>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "gtest/gtest.h"
#include "storage/file.h"
#include "storage/wal.h"
#include "test_util.h"
#include "testing/require_failpoints.h"
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

struct Written {
  Lsn lsn;
  uint8_t type;
  std::string payload;
};

/// Reads the whole log and checks it against `expected`, record by
/// record.
void ExpectReadBack(const std::string& dir,
                    const std::vector<Written>& expected) {
  WalCursor cursor(dir, 0);
  WalRecordView entry;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Result<bool> more = cursor.Next(&entry);
    ASSERT_OK(more);
    ASSERT_TRUE(*more) << "record " << i;
    ASSERT_EQ(entry.lsn, expected[i].lsn) << "record " << i;
    ASSERT_EQ(entry.type, expected[i].type) << "record " << i;
    ASSERT_EQ(entry.payload, expected[i].payload) << "record " << i;
  }
  const Result<bool> more = cursor.Next(&entry);
  ASSERT_OK(more);
  EXPECT_FALSE(*more);
}

/// Payload length of a record that, written at `at`, ends at `end`.
size_t PadPayloadLength(Lsn at, Lsn end) {
  return static_cast<size_t>(end - at) - kWalHeaderSize;
}

// The first chunk of a segment longer than the window ends exactly at
// kWalReadAheadBytes. A pad record puts the next record's first byte
// `before` bytes ahead of that edge, so the edge falls inside its
// header, right after it, or inside its body.
TEST(WalReadAheadTest, RecordStraddlingTheChunkEdgeReadsBackIntact) {
  for (const size_t before :
       {size_t{1}, size_t{4}, size_t{8}, kWalHeaderSize, size_t{10},
        size_t{30}}) {
    SCOPED_TRACE("bytes before the edge: " + std::to_string(before));
    TempDir dir;
    std::vector<Written> written;
    auto writer = *WalWriter::Open(Opts(dir.path()));
    const auto append = [&](uint8_t type, std::string payload) {
      Written w;
      w.type = type;
      w.payload = std::move(payload);
      w.lsn = *writer->Append(w.type, w.payload);
      written.push_back(std::move(w));
    };
    append(1, "head");
    append(2, std::string(PadPayloadLength(writer->next_lsn(),
                                           kWalReadAheadBytes - before),
                          'p'));
    ASSERT_EQ(writer->next_lsn(), kWalReadAheadBytes - before);
    append(3, "the record that straddles the edge of the first chunk");
    append(4, "tail");
    ExpectReadBack(dir.path(), written);
  }
}

TEST(WalReadAheadTest, RandomRecordsAcrossManyChunksReadBackIntact) {
  TempDir dir;
  testing::SeededRng rng(/*stream=*/4101);
  std::vector<Written> written;
  {
    // Segments of 2.5 windows, so chunk edges fall at many offsets inside
    // records and records also straddle segment rolls.
    auto writer =
        *WalWriter::Open(Opts(dir.path(), 5 * kWalReadAheadBytes / 2));
    while (writer->next_lsn() < 6 * kWalReadAheadBytes) {
      Written w;
      w.type = static_cast<uint8_t>(1 + rng.Uniform(200));
      w.payload = rng.NextString(rng.Uniform(3000));
      w.lsn = *writer->Append(w.type, w.payload);
      written.push_back(std::move(w));
    }
  }
  ExpectReadBack(dir.path(), written);
}

TEST(WalReadAheadTest, RecordLargerThanTheWindowReadsBack) {
  TempDir dir;
  testing::SeededRng rng(/*stream=*/4102);
  std::vector<Written> written;
  {
    auto writer = *WalWriter::Open(Opts(dir.path()));
    for (const size_t len :
         {size_t{10}, kWalReadAheadBytes + 1000, size_t{20},
          2 * kWalReadAheadBytes, size_t{0},
          kWalReadAheadBytes - kWalHeaderSize,
          kWalReadAheadBytes - kWalHeaderSize + 1, size_t{5}}) {
      Written w;
      w.type = 5;
      w.payload = rng.NextString(len);
      w.lsn = *writer->Append(w.type, w.payload);
      written.push_back(std::move(w));
    }
  }
  ExpectReadBack(dir.path(), written);
}

TEST(WalReadAheadTest, EmptyLogReadsNothing) {
  TempDir dir;
  WalCursor no_segments(dir.path(), 0);
  WalRecordView entry;
  EXPECT_FALSE(*no_segments.Next(&entry));
  { auto writer = *WalWriter::Open(Opts(dir.path())); }
  WalCursor empty_segment(dir.path(), 0);
  EXPECT_FALSE(*empty_segment.Next(&entry));
  EXPECT_EQ(empty_segment.position(), 0u);
}

// A caught-up cursor keeps following the writer: new records, a record
// whose bytes land in two pieces, and segment rolls, all without being
// reopened.
TEST(WalReadAheadTest, CaughtUpCursorSeesLaterAppendsAndRolls) {
  TempDir dir;
  auto writer = *WalWriter::Open(Opts(dir.path(), 256));
  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  EXPECT_FALSE(*cursor.Next(&entry));

  ASSERT_OK(writer->Append(1, "one"));
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "one");
  EXPECT_FALSE(*cursor.Next(&entry));

  int appended = 1;
  int read = 1;
  // Enough 40-byte records to roll 256-byte segments several times.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_OK(writer->Append(2, std::string(40, 'a' + appended % 26)));
      ++appended;
    }
    for (;;) {
      const Result<bool> more = cursor.Next(&entry);
      ASSERT_OK(more);
      if (!*more) break;
      EXPECT_EQ(entry.payload, std::string(40, 'a' + read % 26));
      ++read;
    }
    ASSERT_EQ(read, appended) << "round " << round;
    EXPECT_EQ(cursor.position(), writer->next_lsn());
  }
  const std::vector<std::string> names = *ListDir(dir.path());
  size_t segments = 0;
  for (const std::string& name : names) {
    if (ParseWalSegmentName(name) != kInvalidLsn) ++segments;
  }
  EXPECT_GT(segments, 3u);
}

TEST(WalReadAheadTest, RecordLandingInTwoPiecesIsReadOnceComplete) {
  TempDir dir;
  const std::string seg = dir.path() + "/" + WalSegmentName(0);
  std::string frame;
  {
    auto writer = *WalWriter::Open(Opts(dir.path()));
    ASSERT_OK(writer->Append(1, "head"));
    ASSERT_OK(writer->Append(2, "the record that arrives in two writes"));
    frame = *ReadFileToString(seg);
  }
  const size_t first_end = kWalHeaderSize + 4;
  ASSERT_OK(WriteStringToFile(seg, frame.substr(0, first_end),
                              /*sync=*/false));
  WalCursor cursor(dir.path(), 0);
  WalRecordView entry;
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "head");
  auto appender = *WritableFile::Open(seg);
  size_t landed = first_end;
  for (const size_t cut : {size_t{3}, kWalHeaderSize, size_t{20}}) {
    // Only part of the record has landed: caught up, nothing consumed.
    ASSERT_OK(appender->Append(
        std::string_view(frame).substr(landed, first_end + cut - landed)));
    landed = first_end + cut;
    EXPECT_FALSE(*cursor.Next(&entry)) << "cut " << cut;
    EXPECT_EQ(cursor.position(), first_end);
  }
  ASSERT_OK(appender->Append(std::string_view(frame).substr(landed)));
  ASSERT_TRUE(*cursor.Next(&entry));
  EXPECT_EQ(entry.payload, "the record that arrives in two writes");
  EXPECT_FALSE(*cursor.Next(&entry));
}

// WalWriter::Open resumes at the replay's end when given the replay's
// cursor, and finds the same end on its own without it.
TEST(WalReadAheadTest, WriterResumesWhereTheReplayStopped) {
  TempDir dir;
  const std::string seg = dir.path() + "/" + WalSegmentName(0);
  Lsn keep_end = 0;
  {
    auto writer = *WalWriter::Open(Opts(dir.path()));
    ASSERT_OK(writer->Append(1, "kept"));
    keep_end = writer->next_lsn();
    ASSERT_OK(writer->Append(1, "torn away"));
  }
  const std::string full = *ReadFileToString(seg);
  const std::string torn = full.substr(0, full.size() - 3);
  for (const bool with_replay : {true, false}) {
    ASSERT_OK(WriteStringToFile(seg, torn, /*sync=*/false));
    WalCursor replay(dir.path(), 0);
    WalRecordView entry;
    while (*replay.Next(&entry)) {
    }
    ASSERT_EQ(replay.position(), keep_end);
    auto writer =
        *WalWriter::Open(Opts(dir.path()), with_replay ? &replay : nullptr);
    EXPECT_EQ(writer->next_lsn(), keep_end) << "with_replay " << with_replay;
    EXPECT_EQ(ReadFileToString(seg)->size(), keep_end);
  }
  // A replay that began past the newest segment's start did not read it
  // all; the writer must not trust it.
  ASSERT_OK(WriteStringToFile(seg, torn, /*sync=*/false));
  WalCursor late(dir.path(), keep_end);
  WalRecordView entry;
  EXPECT_FALSE(*late.Next(&entry));
  auto writer = *WalWriter::Open(Opts(dir.path()), &late);
  EXPECT_EQ(writer->next_lsn(), keep_end);
}

/// Sorted start LSNs of the segments in `dir`.
std::vector<Lsn> SegmentStarts(const std::string& dir) {
  std::vector<Lsn> starts;
  const std::vector<std::string> names = *ListDir(dir);
  for (const std::string& name : names) {
    const Lsn start = ParseWalSegmentName(name);
    if (start != kInvalidLsn) starts.push_back(start);
  }
  std::sort(starts.begin(), starts.end());
  return starts;
}

// A machine crash under kNever can leave a closed segment shorter than
// the LSN where the next one starts (the roll does not sync it). The
// replay stops at that gap; the writer must cut the log there, so that
// what it appends next is read back by the next replay instead of
// landing behind the gap.
TEST(WalGapTest, ShortOlderSegmentCutsTheLogAtTheReplayEnd) {
  // Cut 0 drops the segment's last record whole; the others end it in
  // the middle of a header or a body.
  for (const size_t cut : {size_t{0}, size_t{3}, size_t{20}}) {
    SCOPED_TRACE("bytes cut into the last record: " + std::to_string(cut));
    TempDir dir;
    std::vector<Written> written;
    {
      auto writer = *WalWriter::Open(Opts(dir.path(), 256));
      for (int i = 0; i < 30; ++i) {
        Written w;
        w.type = 1;
        w.payload = "record-" + std::to_string(i) + std::string(30, 'r');
        w.lsn = *writer->Append(w.type, w.payload);
        written.push_back(std::move(w));
      }
    }
    const std::vector<Lsn> before = SegmentStarts(dir.path());
    ASSERT_GE(before.size(), 4u);
    // The second segment loses its last record, or part of it.
    size_t last_in_second = 0;
    for (size_t i = 0; i < written.size(); ++i) {
      if (written[i].lsn >= before[1] && written[i].lsn < before[2]) {
        last_in_second = i;
      }
    }
    const Lsn gap = written[last_in_second].lsn;
    const std::string second = dir.path() + "/" + WalSegmentName(before[1]);
    const std::string bytes = *ReadFileToString(second);
    ASSERT_EQ(before[1] + bytes.size(), before[2]);
    ASSERT_OK(WriteStringToFile(second, bytes.substr(0, gap - before[1] + cut),
                                /*sync=*/false));
    written.resize(last_in_second);

    WalCursor replay(dir.path(), 0);
    WalRecordView entry;
    size_t replayed = 0;
    while (*replay.Next(&entry)) ++replayed;
    ASSERT_EQ(replayed, written.size());
    ASSERT_EQ(replay.position(), gap);

    {
      auto writer = *WalWriter::Open(Opts(dir.path(), 256), &replay);
      EXPECT_EQ(writer->next_lsn(), gap);
      EXPECT_EQ(SegmentStarts(dir.path()),
                std::vector<Lsn>(before.begin(), before.begin() + 2));
      // Enough to roll again: later records and segments follow on.
      for (int i = 0; i < 10; ++i) {
        Written w;
        w.type = 2;
        w.payload = "after-" + std::to_string(i) + std::string(30, 'a');
        w.lsn = *writer->Append(w.type, w.payload);
        written.push_back(std::move(w));
      }
    }
    ExpectReadBack(dir.path(), written);
  }
}

// A replay that stopped before every segment has no prefix to resume
// from; the writer refuses rather than append behind the segments.
TEST(WalGapTest, ReplayStoppedBeforeTheFirstSegmentIsCorruption) {
  TempDir dir;
  {
    auto writer = *WalWriter::Open(Opts(dir.path(), 256));
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(writer->Append(1, std::string(60, 'x')));
    }
  }
  const std::vector<Lsn> starts = SegmentStarts(dir.path());
  ASSERT_GE(starts.size(), 2u);
  ASSERT_OK(RemoveFile(dir.path() + "/" + WalSegmentName(starts[0])));
  WalCursor replay(dir.path(), 0);
  WalRecordView entry;
  EXPECT_FALSE(*replay.Next(&entry));
  const auto writer = WalWriter::Open(Opts(dir.path(), 256), &replay);
  ASSERT_FALSE(writer.ok());
  EXPECT_TRUE(writer.status().IsCorruption()) << writer.status();
}

TEST(WalRollTest, NeverPolicySkipsTheRollSyncOthersPropagateIt) {
  EDADB_REQUIRE_FAILPOINTS();
  for (const WalSyncPolicy policy :
       {WalSyncPolicy::kNever, WalSyncPolicy::kOnCommit}) {
    TempDir dir;
    auto writer = *WalWriter::Open(Opts(dir.path(), 64, policy));
    ASSERT_OK(writer->Append(1, std::string(64, 'x')));  // Fills segment 0.
    failpoint::Action fail;
    fail.kind = failpoint::ActionKind::kReturnStatus;
    fail.status = Status::IOError("injected fdatasync failure");
    failpoint::Arm("file.sync", fail);
    const Status rolled = writer->Append(1, "rolls").status();
    failpoint::DisarmAll();
    if (policy == WalSyncPolicy::kNever) {
      EXPECT_OK(rolled);
    } else {
      EXPECT_TRUE(rolled.IsIOError()) << rolled;
    }
  }
}

}  // namespace
}  // namespace edadb
