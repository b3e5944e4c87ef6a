#ifndef EDADB_TESTS_TESTING_REQUIRE_FAILPOINTS_H_
#define EDADB_TESTS_TESTING_REQUIRE_FAILPOINTS_H_

#include <gtest/gtest.h>

#include "common/failpoint.h"

/// Skips the calling test (or fixture SetUp) in builds whose FAILPOINT
/// sites compile to nothing. Release builds default EDADB_FAILPOINTS to
/// OFF, so a test that arms a failpoint there would inject no fault and
/// fail on the missing error instead of on a real defect.
#define EDADB_REQUIRE_FAILPOINTS()                                    \
  do {                                                                \
    if (!EDADB_FAILPOINTS_ENABLED) {                                  \
      GTEST_SKIP() << "needs fault-injection failpoints; this build " \
                      "has EDADB_FAILPOINTS=OFF (the Release default)"; \
    }                                                                 \
  } while (false)

#endif  // EDADB_TESTS_TESTING_REQUIRE_FAILPOINTS_H_
