#include "trace.h"

#include <gtest/gtest.h>

namespace skipbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 1.75);
}

TEST(PercentileTest, SingleValueAndEmpty) {
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 95), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(PercentileTest, NinetyFifthOfHundredValues) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 95), 95.05);
}

Span Make(const char* layer, int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimesTest, SubtractsUnionOfChildren) {
  // Root [0, 100) with children [10, 30) and [20, 50): union 40.
  const std::vector<Span> spans = {Make("engine", 0, 100, -1),
                                   Make("scan", 10, 30, 0),
                                   Make("scan", 20, 50, 0)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTimesTest, ClipsChildrenToParentAndCountsOnlyDirectChildren) {
  // Child [90, 130) sticks out of the root; grandchild [95, 120) is
  // covered by its own parent, not by the root.
  const std::vector<Span> spans = {Make("engine", 0, 100, -1),
                                   Make("skipping", 90, 130, 0),
                                   Make("adaptive", 95, 120, 1),
                                   Make("scan", 0, 5, 0)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 10 - 5);
  EXPECT_EQ(self[1], 40 - 25);
  EXPECT_EQ(self[2], 25);
  EXPECT_EQ(self[3], 5);
}

TEST(SelfTimesTest, LayerTotalsSumSelfTimes) {
  SpanRecorder recorder;
  recorder.AddQuery("q", 1, 1000, 2000, 100, 300, 50);
  recorder.AddQuery("q", 2, 3000, 3500, 0, 200, 0);
  const auto by_layer = LayerSelfTimes(recorder.spans());
  EXPECT_EQ(by_layer.at("engine"), (1000 - 450) + (500 - 200));
  EXPECT_EQ(by_layer.at("skipping"), 100);
  EXPECT_EQ(by_layer.at("scan"), 500);
  EXPECT_EQ(by_layer.at("adaptive"), 50);
}

}  // namespace
}  // namespace skipbench
