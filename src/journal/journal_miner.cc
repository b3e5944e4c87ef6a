#include "journal/journal_miner.h"

#include "common/string_util.h"
#include "value/row_codec.h"

namespace edadb {

std::string ChangeEvent::ToString() const {
  std::string out(LogRecordTypeToString(op));
  out += " table=" + table_name;
  out += StringPrintf(" row=%llu txn=%llu",
                      static_cast<unsigned long long>(row_id),
                      static_cast<unsigned long long>(txn_id));
  if (before.has_value()) out += " before=" + before->ToString();
  if (after.has_value()) out += " after=" + after->ToString();
  return out;
}

JournalMiner::JournalMiner(const Database* db, JournalMinerOptions options,
                           Lsn start_lsn)
    : db_(db),
      options_(std::move(options)),
      cursor_(db->wal_dir(), start_lsn),
      watermark_(start_lsn) {}

std::optional<ChangeEvent> JournalMiner::ToEvent(const LogRecord& rec,
                                                 Lsn lsn) const {
  const Table* table = db_->GetTableById(rec.table_id);
  if (table == nullptr) return std::nullopt;  // Dropped since.
  if (!options_.tables.empty() &&
      options_.tables.count(table->name()) == 0) {
    return std::nullopt;
  }
  ChangeEvent event;
  event.op = rec.type;
  event.lsn = lsn;
  event.txn_id = rec.txn_id;
  event.table_id = rec.table_id;
  event.table_name = table->name();
  event.row_id = rec.row_id;
  if (!rec.old_row.empty()) {
    auto before = DecodeRow(table->schema(), rec.old_row);
    if (before.ok()) event.before = *std::move(before);
  }
  if (!rec.new_row.empty()) {
    auto after = DecodeRow(table->schema(), rec.new_row);
    if (after.ok()) event.after = *std::move(after);
  }
  return event;
}

Result<size_t> JournalMiner::Poll(
    const std::function<void(const ChangeEvent&)>& callback) {
  size_t delivered = 0;
  WalRecordView entry;
  for (;;) {
    EDADB_ASSIGN_OR_RETURN(bool more, cursor_.Next(&entry));
    if (!more) break;
    EDADB_ASSIGN_OR_RETURN(LogRecord rec,
                           LogRecord::Decode(entry.type, entry.payload));
    switch (rec.type) {
      case LogRecordType::kBeginTxn:
        pending_ = PendingTxn{rec.txn_id, entry.lsn, {}};
        break;
      case LogRecordType::kInsert:
      case LogRecordType::kUpdate:
      case LogRecordType::kDelete:
        if (pending_.has_value() && pending_->txn_id == rec.txn_id) {
          pending_->ops.emplace_back(entry.lsn, std::move(rec));
        }
        break;
      case LogRecordType::kCommitTxn:
        if (pending_.has_value() && pending_->txn_id == rec.txn_id) {
          for (const auto& [op_lsn, op] : pending_->ops) {
            std::optional<ChangeEvent> event = ToEvent(op, op_lsn);
            if (event.has_value()) {
              callback(*event);
              ++delivered;
            }
          }
          pending_.reset();
        }
        watermark_ = cursor_.position();
        break;
      case LogRecordType::kAbortTxn:
        if (pending_.has_value() && pending_->txn_id == rec.txn_id) {
          pending_.reset();
        }
        watermark_ = cursor_.position();
        break;
      case LogRecordType::kCreateTable:
      case LogRecordType::kDropTable: {
        if (options_.include_ddl &&
            (options_.tables.empty() ||
             options_.tables.count(rec.table_name) > 0)) {
          ChangeEvent event;
          event.op = rec.type;
          event.lsn = entry.lsn;
          event.table_id = rec.table_id;
          event.table_name = rec.table_name;
          callback(event);
          ++delivered;
        }
        if (!pending_.has_value()) watermark_ = cursor_.position();
        break;
      }
      case LogRecordType::kCreateIndex:
      case LogRecordType::kCheckpoint:
        if (!pending_.has_value()) watermark_ = cursor_.position();
        break;
    }
  }
  // If a transaction is still open at the tail, the watermark stays at
  // its BEGIN so a restart re-reads the whole transaction.
  if (pending_.has_value()) {
    watermark_ = pending_->begin_lsn;
  } else {
    watermark_ = cursor_.position();
  }
  return delivered;
}

}  // namespace edadb
