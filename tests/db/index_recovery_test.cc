// Regression: CreateIndex used to build the in-memory index BEFORE its
// WAL record was durable. A failed append/sync then left a live index
// the planner would happily use — which silently vanished on reopen.
// The fix rolls the in-memory index back when logging fails, keeping
// memory and disk consistent. Exercised via injected WAL faults.

#include <memory>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/crash_harness.h"
#include "testing/require_failpoints.h"

namespace fp = edadb::failpoint;
using edadb::Database;
using edadb::DatabaseOptions;
using edadb::QueryBuilder;
using edadb::Record;
using edadb::Schema;
using edadb::SchemaPtr;
using edadb::TempDir;
using edadb::Value;
using edadb::ValueType;
using edadb::WalSyncPolicy;
using edadb::testing::ArmError;
using edadb::testing::FailpointGuard;

namespace {

std::unique_ptr<Database> OpenDb(const std::string& dir) {
  DatabaseOptions options;
  options.dir = dir;
  options.wal_sync_policy = WalSyncPolicy::kNever;
  auto db = Database::Open(std::move(options));
  EXPECT_OK(db.status());
  return *std::move(db);
}

SchemaPtr MakeSchema() {
  return Schema::Make({{"id", ValueType::kInt64, false},
                       {"score", ValueType::kInt64, false}});
}

void Populate(Database* db, const SchemaPtr& schema) {
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_OK(db->Insert("t", Record(schema, {Value::Int64(i),
                                              Value::Int64(i * 10)}))
                  .status());
  }
}

void RunCreateIndexFailure(const char* failed_site) {
  FailpointGuard guard;
  TempDir dir;
  SchemaPtr schema = MakeSchema();
  {
    auto db = OpenDb(dir.path());
    ASSERT_OK(db->CreateTable("t", schema));
    Populate(db.get(), schema);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    ArmError(failed_site);
    const edadb::Status s = db->CreateIndex("t", "score", false);
    fp::DisarmAll();
    ASSERT_FALSE(s.ok()) << "injected fault at " << failed_site
                         << " did not surface";

    // The in-memory index must be gone — memory matches disk.
    auto table = db->GetTable("t");
    ASSERT_OK(table.status());
    EXPECT_FALSE((*table)->HasIndex("score"))
        << "failed CreateIndex left a live in-memory index";

    // The planner agrees, and the table is still fully usable.
    auto query = QueryBuilder("t").Where("score = 50").Build();
    auto plan = db->Explain(query);
    ASSERT_OK(plan.status());
    EXPECT_EQ(plan->find("index"), std::string::npos) << *plan;
    auto rows = db->Execute(query);
    ASSERT_OK(rows.status());

    // Retrying after the fault clears must succeed and index for real.
    ASSERT_OK(db->CreateIndex("t", "score", false));
    EXPECT_TRUE((*db->GetTable("t"))->HasIndex("score"));
  }
  // And the retried index is durable across recovery.
  auto db = OpenDb(dir.path());
  auto table = db->GetTable("t");
  ASSERT_OK(table.status());
  EXPECT_TRUE((*table)->HasIndex("score"))
      << "successfully created index lost on reopen";
}

TEST(IndexRecoveryTest, CreateIndexRollsBackWhenWalAppendFails) {
  EDADB_REQUIRE_FAILPOINTS();
  RunCreateIndexFailure("wal.append.before");
}

TEST(IndexRecoveryTest, CreateIndexRollsBackWhenWalSyncFails) {
  EDADB_REQUIRE_FAILPOINTS();
  RunCreateIndexFailure("wal.sync");
}

}  // namespace
