#ifndef EDADB_STORAGE_WAL_H_
#define EDADB_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "storage/file.h"

namespace edadb {

/// Log sequence number: the global byte offset of a record across all
/// WAL segments. LSN space is contiguous — each segment file is named
/// wal-<start_lsn>.log and the next segment starts where the previous
/// ended — so any LSN identifies both a segment and an offset within it.
using Lsn = uint64_t;

constexpr Lsn kInvalidLsn = UINT64_MAX;

/// When the log forces data to stable media. The tutorial's "operational
/// characteristics: recoverability, availability, transactional support"
/// trade against throughput here; bench_storage (E3) measures it.
enum class WalSyncPolicy {
  kNever,        // OS page cache only; fastest, loses tail on crash
                 // (a machine crash may also cut a closed segment short;
                 // recovery keeps the log up to the cut).
  kOnCommit,     // fdatasync on every commit barrier (Sync() call).
  kEveryAppend,  // fdatasync on every record; slowest, strongest.
};

struct WalOptions {
  std::string dir;
  uint64_t segment_size_bytes = 16 * 1024 * 1024;
  WalSyncPolicy sync_policy = WalSyncPolicy::kOnCommit;
};

/// One record to append, by reference. The payload must stay alive for
/// the duration of the AppendBatch call (the batch is framed into one
/// contiguous write buffer before anything hits the file).
struct WalRecordRef {
  uint8_t type = 0;
  std::string_view payload;
};

/// Where a batch landed in LSN space: records occupy [first_lsn,
/// end_lsn). Pass `end_lsn` to SyncTo() to make the batch durable.
struct WalBatchResult {
  Lsn first_lsn = kInvalidLsn;
  Lsn end_lsn = kInvalidLsn;
};

class WalCursor;

/// Appender. On open it finds the end of the newest segment's last valid
/// record, drops any torn tail (CRC or length mismatch) after it and
/// resumes appending there.
///
/// Thread-safe: appends serialize on wal_mu_; durability requests go
/// through a leader/follower group-commit protocol on sync_mu_ — the
/// first committer to arrive becomes the leader and its one fdatasync
/// covers every record appended before it, so N concurrent committers
/// pay ~1 fdatasync instead of N (DESIGN.md §10).
class WalWriter {
 public:
  /// `replayed`, if given, is a cursor over options.dir that has been
  /// read until it caught up (recovery's replay). When it began at or
  /// before the newest segment, its position is the end of the log's
  /// valid records, so Open resumes there without reading the segment
  /// again. If that end lies in an older segment (one cut short by a
  /// crash, see kNever), Open deletes every later segment so that new
  /// records follow what the replay applied. Without `replayed`, or when
  /// it began past the newest segment's start, Open scans that segment
  /// itself.
  EDADB_NODISCARD static Result<std::unique_ptr<WalWriter>> Open(
      WalOptions options, const WalCursor* replayed = nullptr);

  /// Appends one record, returns its LSN. Thin wrapper over a
  /// one-record AppendBatch (single code path).
  EDADB_NODISCARD Result<Lsn> Append(uint8_t type, std::string_view payload);

  /// Appends `records` as one contiguous file write (one lock
  /// round-trip, one write(2) per segment touched). Rolls to a new
  /// segment between records when the current one is full, so records
  /// never span segments. Under kEveryAppend the batch is synced once,
  /// after the last record.
  EDADB_NODISCARD Result<WalBatchResult> AppendBatch(
      const std::vector<WalRecordRef>& records);

  /// Durability barrier per the sync policy (no-op under kNever).
  /// Equivalent to SyncTo(next_lsn()).
  EDADB_NODISCARD Status Sync();

  /// Group-commit barrier: returns once every byte below `target` is
  /// durable (per the sync policy). Concurrent callers elect a leader;
  /// followers whose target an in-flight fdatasync already covers just
  /// wait for it. If a leader's sync fails, the durable watermark does
  /// not advance and each waiter retries as its own leader.
  EDADB_NODISCARD Status SyncTo(Lsn target);

  /// LSN the next Append will return.
  Lsn next_lsn() const { return next_lsn_.load(std::memory_order_acquire); }

  /// Everything below this LSN has been fdatasync'ed (trivially equals
  /// next_lsn() under kNever, where durability is not promised).
  Lsn durable_lsn() const;

  /// Deletes whole segments that end at or before `lsn`. Used after
  /// checkpoints, bounded by journal-miner retention.
  EDADB_NODISCARD Status TruncateBefore(Lsn lsn);

  const WalOptions& options() const { return options_; }

 private:
  explicit WalWriter(WalOptions options) : options_(std::move(options)) {}

  EDADB_NODISCARD Status OpenNewSegment(Lsn start_lsn) EDADB_REQUIRES(wal_mu_);

  const WalOptions options_;

  /// Serializes appends and segment rolls. Held by the group-commit
  /// leader across its fdatasync, which stalls appends for that window
  /// but lets more followers pile onto the next sync — the batching
  /// effect group commit wants. Never nested with sync_mu_.
  Mutex wal_mu_{"WalWriter::wal_mu_"};
  std::unique_ptr<WritableFile> current_ EDADB_GUARDED_BY(wal_mu_);
  Lsn current_segment_start_ EDADB_GUARDED_BY(wal_mu_) = 0;
  bool dirty_ EDADB_GUARDED_BY(wal_mu_) = false;  // Appends since last Sync.

  /// Advanced only under wal_mu_; atomic so next_lsn() stays lock-free
  /// for readers (the journal miner polls it).
  std::atomic<Lsn> next_lsn_{0};

  /// Group-commit state. sync_mu_ only guards the rendezvous; the
  /// fdatasync itself runs under wal_mu_ with sync_mu_ released.
  mutable Mutex sync_mu_{"WalWriter::sync_mu_"};
  CondVar sync_cv_;
  Lsn durable_lsn_ EDADB_GUARDED_BY(sync_mu_) = 0;
  bool sync_in_flight_ EDADB_GUARDED_BY(sync_mu_) = false;

  /// Emits wal.durable_lag_bytes on registry snapshots. LAST member:
  /// destroyed first, so an in-flight collector reading next_lsn_ /
  /// sync_mu_ finishes before the rest of the writer is torn down.
  metrics::CallbackHandle metrics_collector_;
};

/// One decoded WAL record, borrowed from the cursor that produced it:
/// `payload` points into the cursor's read-ahead window and stays valid
/// only until the next call on that cursor.
struct WalRecordView {
  Lsn lsn = kInvalidLsn;
  uint8_t type = 0;
  std::string_view payload;
};

/// Read-ahead window of a WalCursor.
constexpr size_t kWalReadAheadBytes = 1024 * 1024;

/// Forward cursor over the log, usable while a writer appends (the
/// journal miner tails the live WAL with one of these). Next() returns
/// false when it has caught up with the durable end of the log; call it
/// again later to see newer records.
///
/// Reads are sequential: each segment is read in chunks of up to
/// kWalReadAheadBytes into one reused window, and records are parsed and
/// CRC-checked in place. A chunk never reads past the segment's current
/// size, the window is sized to what the segment holds (no allocation for
/// an empty log), and at the live tail only bytes not yet in the window
/// are read again. A record larger than the window is read on its own.
class WalCursor {
 public:
  /// `start_lsn` = where to begin (0 for the whole log, or a saved
  /// watermark).
  WalCursor(std::string dir, Lsn start_lsn);

  /// Reads the next record into `out` (see WalRecordView for how long
  /// its payload stays valid). Returns true on success, false when
  /// caught up. Corruption mid-log is an error; an incomplete record at
  /// the very tail is treated as "caught up" (it is still being
  /// written), and so is a CRC mismatch in the newest segment (a torn
  /// tail, which WalWriter::Open truncates).
  EDADB_NODISCARD Result<bool> Next(WalRecordView* out);

  Lsn position() const { return lsn_; }
  Lsn start_lsn() const { return start_lsn_; }

 private:
  /// Re-scans the directory for segment files.
  EDADB_NODISCARD Status RefreshSegments();

  /// Ensures file_ is the segment containing lsn_; returns false if no
  /// such segment exists yet.
  EDADB_NODISCARD Result<bool> PositionFile();

  /// Makes at least `n` (<= kWalReadAheadBytes) bytes from lsn_
  /// available in the window, reading ahead as far as the window and the
  /// segment allow. Returns the bytes available, fewer than `n` at the end of
  /// the segment.
  EDADB_NODISCARD Result<size_t> Fill(size_t n);

  /// Forgets the window's contents (keeps its memory).
  void DropWindow() { window_pos_ = window_end_ = 0; }

  std::string dir_;
  Lsn start_lsn_;
  Lsn lsn_;
  std::map<Lsn, std::string> segments_;  // start_lsn -> path
  std::unique_ptr<RandomAccessFile> file_;
  Lsn file_start_ = kInvalidLsn;

  /// Read-ahead window over file_: window_[window_pos_, window_end_)
  /// holds the segment's bytes from offset lsn_ - file_start_ on.
  std::unique_ptr<char[]> window_;
  size_t window_capacity_ = 0;
  size_t window_pos_ = 0;
  size_t window_end_ = 0;
  /// Body of the last record too large for the window.
  std::string large_body_;
};

/// Parses "wal-<start>.log"; returns kInvalidLsn for other names.
Lsn ParseWalSegmentName(std::string_view name);
std::string WalSegmentName(Lsn start_lsn);

/// On-disk record framing: crc(4) | payload_len(4) | type(1) | payload.
constexpr size_t kWalHeaderSize = 9;

}  // namespace edadb

#endif  // EDADB_STORAGE_WAL_H_
