#include "common/failpoint.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/status.h"
#include "testing/crash_harness.h"
#include "testing/require_failpoints.h"

namespace fp = edadb::failpoint;
using edadb::Result;
using edadb::Status;
using edadb::testing::ArmCrash;
using edadb::testing::ArmError;
using edadb::testing::FailpointGuard;
using edadb::testing::SimulatedCrash;

namespace {

Status GuardedOp() {
  FAILPOINT("test.op");
  return Status::OK();
}

Result<int> GuardedValue() {
  FAILPOINT("test.value");
  return 42;
}

TEST(FailpointTest, UnarmedSiteIsANoop) {
  FailpointGuard guard;
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_EQ(42, *GuardedValue());
}

TEST(FailpointTest, InjectedStatusBecomesReturnValue) {
  EDADB_REQUIRE_FAILPOINTS();
  FailpointGuard guard;
  ArmError("test.op", Status::Corruption("boom"));
  const Status s = GuardedOp();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ("boom", s.message());
  // max_fires=1: the next call sails through.
  EXPECT_TRUE(GuardedOp().ok());
}

TEST(FailpointTest, InjectionWorksInResultReturningFunctions) {
  EDADB_REQUIRE_FAILPOINTS();
  FailpointGuard guard;
  ArmError("test.value");
  const Result<int> r = GuardedValue();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
  EXPECT_EQ(42, *GuardedValue());
}

TEST(FailpointTest, SkipDelaysFirstFires) {
  EDADB_REQUIRE_FAILPOINTS();
  FailpointGuard guard;
  ArmError("test.op", Status::IOError("late"), /*skip=*/2);
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_FALSE(GuardedOp().ok());  // Third hit fires.
  EXPECT_TRUE(GuardedOp().ok());   // max_fires=1 exhausted.
}

TEST(FailpointTest, MaxFiresBoundsInjections) {
  EDADB_REQUIRE_FAILPOINTS();
  FailpointGuard guard;
  ArmError("test.op", Status::IOError("x"), /*skip=*/0, /*max_fires=*/3);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (!GuardedOp().ok()) ++failures;
  }
  EXPECT_EQ(3, failures);
}

TEST(FailpointTest, ProbabilityIsDeterministicUnderSeed) {
  EDADB_REQUIRE_FAILPOINTS();
  FailpointGuard guard;
  const auto run = [] {
    fp::SetSeed(12345);
    fp::Action action;
    action.probability = 0.5;
    action.max_fires = -1;
    fp::Arm("test.op", action);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(!GuardedOp().ok());
    fp::Disarm("test.op");
    return fired;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  const int fires = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 50);
  EXPECT_LT(fires, 150);
}

TEST(FailpointTest, CrashInvokesHandler) {
  EDADB_REQUIRE_FAILPOINTS();
  FailpointGuard guard;
  ArmCrash("test.op");
  bool crashed = false;
  try {
    EDADB_IGNORE_STATUS(GuardedOp(),
                        "the armed crash action throws before returning");
  } catch (const SimulatedCrash& crash) {
    crashed = true;
    EXPECT_EQ("test.op", crash.site);
  }
  EXPECT_TRUE(crashed);
}

TEST(FailpointTest, DelayFiresWithoutFailing) {
  EDADB_REQUIRE_FAILPOINTS();
  FailpointGuard guard;
  fp::Action action;
  action.kind = fp::ActionKind::kDelay;
  action.arg = 100;  // 100us: just prove the path runs.
  fp::Arm("test.op", action);
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_EQ(1u, fp::HitCount("test.op"));
}

TEST(FailpointTest, HitCountsTrackSitesWhileAnythingIsArmed) {
  EDADB_REQUIRE_FAILPOINTS();
  FailpointGuard guard;
  // Arming an unrelated site still counts hits on this one, which is
  // how the torture harness validates its site list against reality.
  ArmError("test.unrelated");
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_EQ(2u, fp::HitCount("test.op"));
}

TEST(FailpointTest, DisarmAllRestoresTheFastPath) {
  FailpointGuard guard;
  ArmError("test.op");
  ArmError("test.value");
  EXPECT_EQ(2u, fp::ArmedSites().size());
  fp::DisarmAll();
  EXPECT_TRUE(fp::ArmedSites().empty());
  EXPECT_FALSE(fp::internal::AnyArmed());
  EXPECT_TRUE(GuardedOp().ok());
}

TEST(FailpointTest, RearmingReplacesActionAndResetsCounters) {
  EDADB_REQUIRE_FAILPOINTS();
  FailpointGuard guard;
  ArmError("test.op", Status::IOError("a"), /*skip=*/5);
  EXPECT_TRUE(GuardedOp().ok());
  ArmError("test.op", Status::Aborted("b"), /*skip=*/0);
  const Status s = GuardedOp();
  EXPECT_TRUE(s.IsAborted());
}

}  // namespace
