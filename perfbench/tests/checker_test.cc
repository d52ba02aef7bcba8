// Self-test of the benchmark's answer checker: a real answer passes, and
// each deliberately corrupted copy of it is rejected.

#include <gtest/gtest.h>

#include <limits>

#include "checker.h"
#include "inputs.h"
#include "script.h"
#include "workload/compress.h"

namespace perfbench {
namespace {

using dbdesign::ConstraintDelta;
using dbdesign::DeploymentPlan;
using dbdesign::Designer;
using dbdesign::DesignConstraints;
using dbdesign::DesignSession;
using dbdesign::IndexDef;
using dbdesign::IndexRecommendation;

constexpr double kInf = std::numeric_limits<double>::infinity();

class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sub_ = BuildSubstrate(1500, 7);
    dbdesign::Rng rng(11);
    SdssTrace trace = MakeSdssTrace(rng, 60, 8);
    auto bound = Bind(sub_.backend->catalog(), trace.sql);
    ASSERT_TRUE(bound.ok());
    workload_ = bound.value();
    dbdesign::TemplateClassTable table;
    for (const auto& q : workload_.queries) table.AddInstance(q);
    classes_ = table.classes();

    designer_ = std::make_unique<Designer>(*sub_.backend);
    session_ = std::make_unique<DesignSession>(*designer_);
    session_->SetWorkload(workload_);
    DesignConstraints budget;
    budget.storage_budget_pages = 0.3 * sub_.data_pages;
    ASSERT_TRUE(session_->SetConstraints(budget).ok());
    auto first = session_->Recommend();
    ASSERT_TRUE(first.ok());
    ASSERT_GE(first.value().indexes.size(), 3u);
    // Pin one recommended index and veto another: the answer then has a
    // pin to lose and a veto to break.
    ConstraintDelta delta;
    delta.pin.push_back(first.value().indexes[0]);
    delta.veto.push_back(first.value().indexes[1]);
    auto refined = session_->Refine(delta);
    ASSERT_TRUE(refined.ok());
    rec_ = refined.value();
    constraints_ = session_->constraints();
    auto plan = session_->PlanDeployment();
    ASSERT_TRUE(plan.ok());
    plan_ = plan.value();
  }

  Violations Check(const IndexRecommendation& rec,
                   const DesignConstraints& constraints) {
    auto priced = PriceAnswer(*sub_.backend, classes_, rec);
    EXPECT_TRUE(priced.ok());
    return CheckRecommendation(rec, workload_, priced.value(), constraints, kInf);
  }

  Violations CheckPlan(const DeploymentPlan& plan) {
    auto full = PriceClasses(*sub_.backend, classes_, DesignOf(rec_.indexes));
    EXPECT_TRUE(full.ok());
    return CheckSchedule(plan, rec_.indexes, constraints_, kInf, full.value());
  }

  Substrate sub_;
  dbdesign::Workload workload_;
  std::vector<dbdesign::TemplateClass> classes_;
  std::unique_ptr<Designer> designer_;
  std::unique_ptr<DesignSession> session_;
  IndexRecommendation rec_;
  DesignConstraints constraints_;
  DeploymentPlan plan_;
};

TEST_F(CheckerTest, GenuineAnswerPasses) {
  EXPECT_TRUE(Check(rec_, constraints_).empty());
  EXPECT_TRUE(CheckPlan(plan_).empty());
  EXPECT_TRUE(CheckSameCost(rec_, rec_, "self").empty());
  EXPECT_TRUE(CheckSameAsSolo({rec_}, &plan_, {rec_}, plan_).empty());
}

TEST_F(CheckerTest, RejectsCostPerturbedByOnePpm) {
  for (double factor : {1.0 - 1e-6, 1.0 + 1e-6}) {
    IndexRecommendation bad = rec_;
    bad.recommended_cost *= factor;
    EXPECT_FALSE(Check(bad, constraints_).empty()) << factor;
    EXPECT_FALSE(CheckSameCost(bad, rec_, "perturbed").empty()) << factor;
  }
}

TEST_F(CheckerTest, RejectsIndexSetOverBudget) {
  // A budget the genuine answer just meets; one more index breaks it.
  DesignConstraints tight = constraints_;
  tight.storage_budget_pages = rec_.total_size_pages + 0.25;
  ASSERT_TRUE(Check(rec_, tight).empty());
  IndexRecommendation bad = rec_;
  IndexDef extra;
  extra.table = 0;
  extra.columns = {1, 2, 3};
  ASSERT_FALSE(std::find(bad.indexes.begin(), bad.indexes.end(), extra) !=
               bad.indexes.end());
  bad.indexes.push_back(extra);
  bad.total_size_pages += sub_.backend->EstimateIndexSize(extra).total_pages();
  Violations v = Check(bad, tight);
  EXPECT_NE(std::find_if(v.begin(), v.end(),
                         [](const std::string& m) {
                           return m.find("exceeds budget") != std::string::npos;
                         }),
            v.end());
}

TEST_F(CheckerTest, RejectsVetoedIndexPresent) {
  IndexRecommendation bad = rec_;
  bad.indexes.push_back(constraints_.vetoed_indexes.at(0));
  Violations v = Check(bad, constraints_);
  EXPECT_NE(std::find_if(v.begin(), v.end(),
                         [](const std::string& m) {
                           return m.find("vetoed index") != std::string::npos;
                         }),
            v.end());
}

TEST_F(CheckerTest, RejectsMissingPin) {
  IndexRecommendation bad = rec_;
  const IndexDef& pin = constraints_.pinned_indexes.at(0);
  bad.indexes.erase(std::find(bad.indexes.begin(), bad.indexes.end(), pin));
  Violations v = Check(bad, constraints_);
  EXPECT_NE(std::find_if(v.begin(), v.end(),
                         [](const std::string& m) {
                           return m.find("pinned index") != std::string::npos;
                         }),
            v.end());
}

TEST_F(CheckerTest, RejectsScheduleThatIsNotAPermutation) {
  ASSERT_GE(plan_.schedule.steps.size(), 2u);
  DeploymentPlan duplicated = plan_;
  duplicated.schedule.steps[1] = duplicated.schedule.steps[0];
  EXPECT_FALSE(CheckPlan(duplicated).empty());
  DeploymentPlan dropped = plan_;
  dropped.schedule.steps.pop_back();
  EXPECT_FALSE(CheckPlan(dropped).empty());
}

TEST_F(CheckerTest, RejectsTenantAnswerDifferentFromSolo) {
  IndexRecommendation other_cost = rec_;
  other_cost.recommended_cost = std::nextafter(rec_.recommended_cost, kInf);
  EXPECT_FALSE(CheckSameAsSolo({other_cost}, &plan_, {rec_}, plan_).empty());
  IndexRecommendation other_set = rec_;
  other_set.indexes.pop_back();
  EXPECT_FALSE(CheckSameAsSolo({other_set}, &plan_, {rec_}, plan_).empty());
  DeploymentPlan reordered = plan_;
  std::swap(reordered.schedule.steps.front(), reordered.schedule.steps.back());
  EXPECT_FALSE(CheckSameAsSolo({rec_}, &reordered, {rec_}, plan_).empty());
}

TEST_F(CheckerTest, QualityFallsForAWorseDesign) {
  // A design that keeps only the pins meets every constraint, so the
  // checks pass it; the quality tally must see that it is worse.
  auto candidates = session_->prepared_state().candidates;
  dbdesign::GreedyAdvisor greedy(*sub_.backend);
  auto greedy_priced =
      PriceGreedyAnswer(greedy, *sub_.backend, classes_, candidates, constraints_);
  ASSERT_TRUE(greedy_priced.ok());
  auto priced = PriceAnswer(*sub_.backend, classes_, rec_);
  ASSERT_TRUE(priced.ok());
  auto pins_only = PriceClasses(*sub_.backend, classes_,
                                DesignOf(constraints_.pinned_indexes));
  ASSERT_TRUE(pins_only.ok());
  ASSERT_GT(pins_only.value(), priced.value().recommended_cost);

  PricedAnswer worse_priced = priced.value();
  worse_priced.recommended_cost = pins_only.value();
  AnswerQuality genuine;
  genuine.Add(rec_, priced.value());
  genuine.AddGreedy(priced.value().recommended_cost, greedy_priced.value());
  AnswerQuality worse;
  worse.Add(rec_, worse_priced);
  worse.AddGreedy(pins_only.value(), greedy_priced.value());
  EXPECT_GT(worse.mean_vs_base(), genuine.mean_vs_base());
  EXPECT_GT(worse.mean_vs_greedy(), genuine.mean_vs_greedy());
  EXPECT_EQ(worse.greedy_wins, 1);
}

}  // namespace
}  // namespace perfbench
