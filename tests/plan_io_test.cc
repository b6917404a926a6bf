#include "src/core/plan_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/planner.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

SynthesisResult SampleSynthesis() {
  TrainConfig c;
  c.parallel.pp = 2;
  c.parallel.ep = 4;
  c.parallel.dp = 4;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  c.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder wb(Qwen15_MoE_A27B(), c);
  return SynthesizePlan(wb.Build(3));
}

TEST(PlanIo, RoundtripPreservesDecisions) {
  SynthesisResult s = SampleSynthesis();
  std::stringstream ss;
  WritePlanCsv(s.plan, s.dyn_space, ss);
  LoadedPlan back;
  std::string error;
  ASSERT_TRUE(ReadPlanCsv(ss, &back, &error)) << error;

  ASSERT_EQ(back.plan.decisions.size(), s.plan.decisions.size());
  EXPECT_EQ(back.plan.pool_size, s.plan.pool_size);
  EXPECT_EQ(back.plan.lower_bound, s.plan.lower_bound);
  for (size_t i = 0; i < s.plan.decisions.size(); ++i) {
    const auto& a = s.plan.decisions[i];
    const auto& b = back.plan.decisions[i];
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.padded_size, b.padded_size);
    EXPECT_EQ(a.event.id, b.event.id);
    EXPECT_EQ(a.event.size, b.event.size);
    EXPECT_EQ(a.event.ts, b.event.ts);
    EXPECT_EQ(a.event.te, b.event.te);
    EXPECT_EQ(a.event.stream, b.event.stream);
  }
}

TEST(PlanIo, RoundtripPreservesDynamicSpace) {
  SynthesisResult s = SampleSynthesis();
  ASSERT_GT(s.dyn_space.group_count(), 0u);
  std::stringstream ss;
  WritePlanCsv(s.plan, s.dyn_space, ss);
  LoadedPlan back;
  std::string error;
  ASSERT_TRUE(ReadPlanCsv(ss, &back, &error)) << error;

  ASSERT_EQ(back.space.regions.size(), s.dyn_space.regions.size());
  for (const auto& [key, region] : s.dyn_space.regions) {
    auto it = back.space.regions.find(key);
    ASSERT_NE(it, back.space.regions.end());
    EXPECT_EQ(it->second, region);
  }
  ASSERT_EQ(back.space.expected_le.size(), s.dyn_space.expected_le.size());
  for (const auto& [ls, les] : s.dyn_space.expected_le) {
    ASSERT_EQ(back.space.expected_le.at(ls), les);
  }
}

TEST(PlanIo, LoadedPlanStillValid) {
  SynthesisResult s = SampleSynthesis();
  std::stringstream ss;
  WritePlanCsv(s.plan, s.dyn_space, ss);
  LoadedPlan back;
  std::string error;
  ASSERT_TRUE(ReadPlanCsv(ss, &back, &error)) << error;  // the reader runs StaticPlan::Check
  EXPECT_TRUE(back.plan.Check(&error)) << error;
}

// A two-decision plan in the on-disk format; the malformed cases below corrupt one piece of it.
constexpr char kHeader[] = "event_id,addr,padded_size,size,ts,te,ps,pe,dyn,ls,le,stream\n";
constexpr char kRowA[] = "0,0,4096,4096,0,10,0,1,0,-1,-1,0\n";
constexpr char kRowB[] = "1,4096,4096,4096,5,15,0,1,0,-1,-1,0\n";

std::string SmallPlanCsv(const std::string& comments, const std::string& header,
                         const std::string& rows) {
  return "# stalloc-plan v1\n# pool,8192,8192\n" + comments + header + rows;
}

// Parses `csv`, expecting failure with a message that mentions `needle`.
void ExpectRejected(const std::string& csv, const std::string& needle) {
  std::istringstream is(csv);
  LoadedPlan plan;
  std::string error;
  EXPECT_FALSE(ReadPlanCsv(is, &plan, &error)) << csv;
  EXPECT_NE(error.find(needle), std::string::npos) << error;
}

TEST(PlanIo, HandWrittenPlanParses) {
  std::istringstream is(SmallPlanCsv("# region,1,2,0,4096\n# expected_le,1,2,3\n", kHeader,
                                     std::string(kRowA) + kRowB));
  LoadedPlan plan;
  std::string error;
  ASSERT_TRUE(ReadPlanCsv(is, &plan, &error)) << error;
  EXPECT_EQ(plan.plan.pool_size, 8192u);
  ASSERT_EQ(plan.plan.decisions.size(), 2u);
  EXPECT_EQ(plan.plan.decisions[1].addr, 4096u);
  EXPECT_EQ(plan.plan.decisions[1].event.ls, -1);
  EXPECT_EQ(plan.space.regions.size(), 1u);
  EXPECT_EQ(plan.space.expected_le.at(1), (std::vector<LayerId>{2, 3}));
}

TEST(PlanIo, BadHeaderIsAnError) {
  ExpectRejected(SmallPlanCsv("", "id,addr,size\n", kRowA), "unexpected header");
}

TEST(PlanIo, ShortRowIsAnError) {
  ExpectRejected(SmallPlanCsv("", kHeader, "0,0,4096,4096,0,10\n"), "short row");
}

TEST(PlanIo, NonNumericRowFieldIsAnError) {
  ExpectRejected(SmallPlanCsv("", kHeader, "0,zero,4096,4096,0,10,0,1,0,-1,-1,0\n"),
                 "non-numeric");
  ExpectRejected(SmallPlanCsv("", kHeader, "0,0,4096,4096,0,10,0,1,0,-1,-1,999\n"),
                 "out-of-range");  // the stream id does not fit its 8-bit field
}

TEST(PlanIo, NonNumericCommentFieldIsAnError) {
  ExpectRejected(SmallPlanCsv("# region,1,x,0,4096\n", kHeader, kRowA), "comment row");
  ExpectRejected(SmallPlanCsv("# region,1,2,0,4k\n", kHeader, kRowA), "comment row");
  ExpectRejected(SmallPlanCsv("# expected_le,1,two\n", kHeader, kRowA), "comment row");
  ExpectRejected("# pool,lots,8192\n" + std::string(kHeader) + kRowA, "comment row");
}

TEST(PlanIo, MissingFileIsAnError) {
  LoadedPlan plan;
  std::string error;
  EXPECT_FALSE(ReadPlanCsvFile(::testing::TempDir() + "/no-such-plan.csv", &plan, &error));
  EXPECT_NE(error.find("cannot open plan file"), std::string::npos) << error;
}

TEST(PlanIo, PlanFailingCheckIsAnError) {
  // Both blocks at address 0 while live together on [5, 10).
  const std::string overlapping = "1,0,4096,4096,5,15,0,1,0,-1,-1,0\n";
  ExpectRejected(SmallPlanCsv("", kHeader, kRowA + overlapping), "invalid static plan");
  // padded_size below size: at replay the block would spill past its planned range. The
  // runtime releases a pool block by recomputing its padding, so any other padding is invalid.
  ExpectRejected(SmallPlanCsv("", kHeader, "0,0,512,4096,0,10,0,1,0,-1,-1,0\n"),
                 "has padded_size 512, expected 4096");
  ExpectRejected(SmallPlanCsv("", kHeader, "0,0,8192,4096,0,10,0,1,0,-1,-1,0\n"),
                 "has padded_size 8192, expected 4096");
}

}  // namespace
}  // namespace stalloc
