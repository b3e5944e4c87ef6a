#include "common/crc32.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "testing/seeded_rng.h"

namespace edadb {
namespace {

/// Random bytes over the full 0-255 range.
std::string RandomBytes(testing::SeededRng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->Next());
  return out;
}

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32C test vectors.
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
}

TEST(Crc32Test, ExtendMatchesWholeBuffer) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t a = Crc32cExtend(Crc32c(data.substr(0, split)),
                                    data.substr(split));
    EXPECT_EQ(a, Crc32c(data)) << "split=" << split;
  }
}

TEST(Crc32Test, DifferentInputsDiffer) {
  EXPECT_NE(Crc32c("a"), Crc32c("b"));
  EXPECT_NE(Crc32c("ab"), Crc32c("ba"));
  EXPECT_NE(Crc32c(std::string("\0", 1)), Crc32c(std::string("\0\0", 2)));
}

TEST(Crc32Test, MaskUnmaskRoundTrip) {
  for (const uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu,
                             Crc32c("payload")}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);  // Masking must change the value.
  }
}

TEST(Crc32Test, TableKnownVectors) {
  // The fallback must stay correct on machines that never reach it.
  EXPECT_EQ(crc32c_internal::ExtendTable(0, "123456789"), 0xe3069283u);
  EXPECT_EQ(crc32c_internal::ExtendTable(0, std::string(32, '\0')),
            0x8a9136aau);
}

TEST(Crc32Test, HardwareMatchesTableProperty) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  EXPECT_EQ(crc32c_internal::ExtendHardware(0, "123456789"), 0xe3069283u);
  testing::SeededRng rng(/*stream=*/3201);
  // A buffer with slack in front, so starts fall on every alignment.
  const std::string buffer = RandomBytes(&rng, 4096 + 16);
  for (size_t len = 0; len <= 4096; ++len) {
    const size_t start = rng.Uniform(16);
    const std::string_view data(buffer.data() + start, len);
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    const uint32_t expected = crc32c_internal::ExtendTable(seed, data);
    ASSERT_EQ(crc32c_internal::ExtendHardware(seed, data), expected)
        << "len=" << len << " start=" << start;
    // The public entry point, fed in random pieces, agrees too.
    uint32_t crc = seed;
    size_t done = 0;
    while (done < len) {
      const size_t piece = 1 + rng.Uniform(len - done);
      crc = Crc32cExtend(crc, data.substr(done, piece));
      done += piece;
    }
    ASSERT_EQ(crc, expected) << "len=" << len << " start=" << start;
  }
}

TEST(Crc32Test, LargeBufferSplitMatchesTable) {
  testing::SeededRng rng(/*stream=*/3202);
  const std::string data = RandomBytes(&rng, 1 << 20);
  const uint32_t expected = crc32c_internal::ExtendTable(0, data);
  EXPECT_EQ(Crc32c(data), expected);
  uint32_t crc = 0;
  for (size_t done = 0; done < data.size();) {
    const size_t piece =
        std::min<size_t>(1 + rng.Uniform(100000), data.size() - done);
    crc = Crc32cExtend(crc, std::string_view(data).substr(done, piece));
    done += piece;
  }
  EXPECT_EQ(crc, expected);
}

}  // namespace
}  // namespace edadb
