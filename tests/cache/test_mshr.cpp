#include "cache/mshr.hpp"

#include <gtest/gtest.h>
#include <vector>

namespace camps::cache {
namespace {

TEST(Mshr, FirstAllocationMustFetch) {
  MshrFile mshrs;
  EXPECT_EQ(mshrs.allocate(0x1000, [] {}), MshrFile::Allocate::kMustFetch);
  EXPECT_TRUE(mshrs.pending(0x1000));
  EXPECT_EQ(mshrs.entries_in_use(), 1u);
}

TEST(Mshr, SecondAllocationMerges) {
  MshrFile mshrs;
  mshrs.allocate(0x1000, [] {});
  EXPECT_EQ(mshrs.allocate(0x1000, [] {}), MshrFile::Allocate::kMerged);
  EXPECT_EQ(mshrs.entries_in_use(), 1u);
  EXPECT_EQ(mshrs.merges(), 1u);
}

TEST(Mshr, CompleteWakesAllWaitersInOrder) {
  MshrFile mshrs;
  std::vector<int> order;
  mshrs.allocate(0x1000, [&] { order.push_back(1); });
  mshrs.allocate(0x1000, [&] { order.push_back(2); });
  mshrs.allocate(0x1000, [&] { order.push_back(3); });
  for (auto& wake : mshrs.complete(0x1000)) wake();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(mshrs.pending(0x1000));
}

TEST(Mshr, DistinctLinesIndependent) {
  MshrFile mshrs;
  EXPECT_EQ(mshrs.allocate(0x1000, [] {}), MshrFile::Allocate::kMustFetch);
  EXPECT_EQ(mshrs.allocate(0x2000, [] {}), MshrFile::Allocate::kMustFetch);
  EXPECT_EQ(mshrs.entries_in_use(), 2u);
  mshrs.complete(0x1000);
  EXPECT_FALSE(mshrs.pending(0x1000));
  EXPECT_TRUE(mshrs.pending(0x2000));
}

TEST(Mshr, ReallocateAfterComplete) {
  MshrFile mshrs;
  mshrs.allocate(0x1000, [] {});
  mshrs.complete(0x1000);
  EXPECT_EQ(mshrs.allocate(0x1000, [] {}), MshrFile::Allocate::kMustFetch);
}

TEST(Mshr, UnlimitedByDefault) {
  MshrFile mshrs;
  for (Addr a = 0; a < 1000 * 64; a += 64) {
    EXPECT_EQ(mshrs.allocate(a, [] {}), MshrFile::Allocate::kMustFetch);
  }
  EXPECT_EQ(mshrs.entries_in_use(), 1000u);
}

TEST(Mshr, CountsAllocations) {
  MshrFile mshrs;
  mshrs.allocate(0x1000, [] {});
  mshrs.allocate(0x2000, [] {});
  mshrs.allocate(0x1000, [] {});
  EXPECT_EQ(mshrs.allocations(), 2u);
  EXPECT_EQ(mshrs.merges(), 1u);
}

}  // namespace
}  // namespace camps::cache
