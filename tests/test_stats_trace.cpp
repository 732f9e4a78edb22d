#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace ecfd::sim {
namespace {

TEST(Counters, AddAndGet) {
  Counters c;
  c.add("x");
  c.add("x", 4);
  EXPECT_EQ(c.get("x"), 5);
  EXPECT_EQ(c.get("missing"), 0);
}

TEST(Counters, SumPrefix) {
  Counters c;
  c.add("msg.a.sent", 3);
  c.add("msg.a.dropped", 1);
  c.add("msg.b.sent", 7);
  c.add("other", 100);
  EXPECT_EQ(c.sum_prefix("msg."), 11);
  EXPECT_EQ(c.sum_prefix("msg.a."), 4);
  EXPECT_EQ(c.sum_prefix("zzz"), 0);
}

TEST(Counters, ResetClears) {
  Counters c;
  c.add("x");
  c.reset();
  EXPECT_EQ(c.get("x"), 0);
  EXPECT_TRUE(c.all().empty());
}

TEST(Summary, BasicStatistics) {
  Summary s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.9), 90.0, 1.0);
}

TEST(Summary, EmptyMeanIsZero) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Summary, AddAfterQueryStillSorted) {
  Summary s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(9.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

}  // namespace
}  // namespace ecfd::sim
