#include <gtest/gtest.h>

#include <limits>

#include "src/sim/ldm.h"

namespace swdnn::sim {
namespace {

TEST(Ldm, AllocatesWithinCapacity) {
  LdmAllocator ldm(64 * 1024);
  auto a = ldm.alloc_doubles(1024);
  EXPECT_EQ(a.size(), 1024u);
  EXPECT_EQ(ldm.bytes_used(), 8192u);
  EXPECT_EQ(ldm.bytes_free(), 64u * 1024u - 8192u);
}

TEST(Ldm, ThrowsOnOverflow) {
  LdmAllocator ldm(64 * 1024);
  ldm.alloc_doubles(8000);
  EXPECT_THROW(ldm.alloc_doubles(200), LdmOverflow);
}

TEST(Ldm, ExactFitSucceeds) {
  LdmAllocator ldm(64 * 1024);
  EXPECT_NO_THROW(ldm.alloc_doubles(8192));
  EXPECT_EQ(ldm.bytes_free(), 0u);
  EXPECT_THROW(ldm.alloc_doubles(1), LdmOverflow);
}

TEST(Ldm, ResetReleasesEverything) {
  LdmAllocator ldm(1024);
  ldm.alloc_doubles(128);
  ldm.reset();
  EXPECT_EQ(ldm.bytes_used(), 0u);
  EXPECT_NO_THROW(ldm.alloc_doubles(128));
}

TEST(Ldm, AllocationsAreDisjoint) {
  LdmAllocator ldm(1024);
  auto a = ldm.alloc_doubles(16);
  auto b = ldm.alloc_doubles(16);
  a[15] = 1.0;
  b[0] = 2.0;
  EXPECT_EQ(a[15], 1.0);
  EXPECT_EQ(b.data(), a.data() + 16);
}

TEST(Ldm, OverflowMessageIsDiagnostic) {
  LdmAllocator ldm(256);
  ldm.alloc_doubles(16);
  try {
    ldm.alloc_doubles(32);
    FAIL() << "expected LdmOverflow";
  } catch (const LdmOverflow& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("256"), std::string::npos);
    EXPECT_NE(msg.find("128"), std::string::npos);
  }
}

TEST(Ldm, HugeRequestsThrowInsteadOfWrapping) {
  // count * sizeof(double) wraps for these counts; the capacity check
  // must still refuse them and leave the arena as it was.
  LdmAllocator ldm(64 * 1024);
  ldm.alloc_doubles(4);
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  for (std::size_t count : {max, max - 1, max / 8 + 1, max / 8 + 2,
                            (max - 32) / 8 + 1}) {
    EXPECT_THROW(ldm.alloc_doubles(count), LdmOverflow) << count;
    EXPECT_EQ(ldm.bytes_used(), 32u) << count;
  }
  EXPECT_NO_THROW(ldm.alloc_doubles(8188));
  EXPECT_EQ(ldm.bytes_free(), 0u);
}

}  // namespace
}  // namespace swdnn::sim
