// Experiment E3 — recoverability & transactional support vs throughput
// (§2.2.b.ii.3): WAL append rates per sync policy and record size, and
// recovery time as a function of log length and checkpoint freshness.

#include <memory>

#include "benchmark/benchmark.h"
#include "bench_util.h"
#include "db/database.h"
#include "storage/wal.h"
#include "common/macros.h"

namespace edadb {
namespace {

void BM_WalAppend(benchmark::State& state) {
  const auto policy = static_cast<WalSyncPolicy>(state.range(0));
  const size_t record_size = static_cast<size_t>(state.range(1));
  bench::BenchDir dir;
  WalOptions options;
  options.dir = dir.path();
  options.sync_policy = policy;
  auto wal = *WalWriter::Open(std::move(options));
  Random rng(1);
  const std::string payload = rng.NextString(record_size);
  for (auto _ : state) {
    if (!wal->Append(1, payload).ok()) std::abort();
    if (policy == WalSyncPolicy::kOnCommit) {
      if (!wal->Sync().ok()) std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(record_size));
  state.SetLabel(policy == WalSyncPolicy::kNever
                     ? "sync=never"
                     : (policy == WalSyncPolicy::kOnCommit
                            ? "sync=per_commit"
                            : "sync=every_append"));
}
BENCHMARK(BM_WalAppend)
    ->Args({static_cast<int>(WalSyncPolicy::kNever), 128})
    ->Args({static_cast<int>(WalSyncPolicy::kNever), 4096})
    ->Args({static_cast<int>(WalSyncPolicy::kOnCommit), 128})
    ->Args({static_cast<int>(WalSyncPolicy::kEveryAppend), 128})
    ->Unit(benchmark::kMicrosecond);

void BM_WalReadBack(benchmark::State& state) {
  bench::BenchDir dir;
  WalOptions options;
  options.dir = dir.path();
  options.sync_policy = WalSyncPolicy::kNever;
  auto wal = *WalWriter::Open(std::move(options));
  Random rng(1);
  const std::string payload = rng.NextString(128);
  constexpr int kRecords = 50000;
  for (int i = 0; i < kRecords; ++i) {
    if (!wal->Append(1, payload).ok()) std::abort();
  }
  for (auto _ : state) {
    WalCursor cursor(dir.path() + "", 0);
    WalRecordView entry;
    int read = 0;
    while (*cursor.Next(&entry)) ++read;
    if (read != kRecords) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_WalReadBack)->Unit(benchmark::kMillisecond);

SchemaPtr BenchSchema() {
  return Schema::Make({
      {"key", ValueType::kInt64, false},
      {"payload", ValueType::kString, true},
  });
}

/// Recovery time: replay `rows` inserts from the WAL on Open.
void BM_RecoveryReplay(benchmark::State& state) {
  const int64_t rows = state.range(0);
  bench::BenchDir dir;
  {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    auto db = *Database::Open(std::move(options));
    if (!db->CreateTable("t", BenchSchema()).ok()) std::abort();
    Random rng(7);
    for (int64_t i = 0; i < rows; ++i) {
      Record row(BenchSchema(),
                 {Value::Int64(i), Value::String(rng.NextString(64))});
      if (!db->Insert("t", std::move(row)).ok()) std::abort();
    }
  }
  for (auto _ : state) {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    auto db = Database::Open(std::move(options));
    if (!db.ok() || *(*db)->CountRows("t") != static_cast<size_t>(rows)) {
      std::abort();
    }
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_RecoveryReplay)->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// Recovery after a checkpoint: snapshot load + short tail replay.
void BM_RecoveryFromCheckpoint(benchmark::State& state) {
  const int64_t rows = state.range(0);
  bench::BenchDir dir;
  {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    auto db = *Database::Open(std::move(options));
    if (!db->CreateTable("t", BenchSchema()).ok()) std::abort();
    Random rng(7);
    for (int64_t i = 0; i < rows; ++i) {
      Record row(BenchSchema(),
                 {Value::Int64(i), Value::String(rng.NextString(64))});
      if (!db->Insert("t", std::move(row)).ok()) std::abort();
    }
    if (!db->Checkpoint(db->wal_end_lsn()).ok()) std::abort();
  }
  for (auto _ : state) {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    auto db = Database::Open(std::move(options));
    if (!db.ok() || *(*db)->CountRows("t") != static_cast<size_t>(rows)) {
      std::abort();
    }
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_RecoveryFromCheckpoint)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_BTreeInsert(benchmark::State& state) {
  BTreeIndex index(/*unique=*/false);
  Random rng(3);
  int64_t i = 0;
  for (auto _ : state) {
    if (!index.Insert(Value::Int64(static_cast<int64_t>(rng.Next() >> 16)),
                      static_cast<RowId>(++i))
             .ok()) {
      std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsert)->Unit(benchmark::kNanosecond);

void BM_BTreeLookup(benchmark::State& state) {
  const int64_t keys = state.range(0);
  BTreeIndex index(false);
  for (int64_t i = 0; i < keys; ++i) {
    EDADB_IGNORE_STATUS(index.Insert(Value::Int64(i), static_cast<RowId>(i)),
                      "bench setup; a failed insert surfaces in the lookup measurements");
  }
  Random rng(4);
  for (auto _ : state) {
    auto rows = index.Lookup(Value::Int64(rng.UniformInt(0, keys - 1)));
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["keys"] = static_cast<double>(keys);
}
BENCHMARK(BM_BTreeLookup)->Arg(1000)->Arg(100000)
    ->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace edadb

int main(int argc, char** argv) { return edadb::bench::BenchMain(argc, argv); }
