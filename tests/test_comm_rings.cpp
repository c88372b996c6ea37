#include "comm/ring.hpp"

#include <gtest/gtest.h>

namespace burst::comm {
namespace {

TEST(RingOrder, FlatRingNavigation) {
  RingOrder r = flat_ring(4);
  EXPECT_EQ(r.size(), 4);
  EXPECT_EQ(r.next_of(0), 1);
  EXPECT_EQ(r.next_of(3), 0);
  EXPECT_EQ(r.prev_of(0), 3);
  EXPECT_EQ(r.prev_of(2), 1);
  EXPECT_EQ(r.index_of(2), 2);
}

TEST(RingOrder, ContainsChecksMembership) {
  RingOrder r({4, 5, 6});
  EXPECT_TRUE(r.contains(5));
  EXPECT_FALSE(r.contains(0));
  EXPECT_FALSE(r.contains(7));
  EXPECT_FALSE(r.contains(-1));
}

TEST(RingOrder, NonContiguousOrder) {
  RingOrder r({2, 0, 5});
  EXPECT_EQ(r.next_of(2), 0);
  EXPECT_EQ(r.next_of(5), 2);
  EXPECT_EQ(r.prev_of(2), 5);
}

}  // namespace
}  // namespace burst::comm
