#include "checker.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/str.h"

namespace perfbench {

using dbdesign::DbmsBackend;
using dbdesign::DeploymentPlan;
using dbdesign::DesignConstraints;
using dbdesign::IndexDef;
using dbdesign::IndexRecommendation;
using dbdesign::PhysicalDesign;
using dbdesign::Result;
using dbdesign::StrFormat;
using dbdesign::TemplateClass;

namespace {

bool Contains(const std::vector<IndexDef>& v, const IndexDef& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// Vetoed outright or through one of its key columns.
bool Vetoed(const DesignConstraints& c, const IndexDef& index) {
  if (Contains(c.vetoed_indexes, index)) return true;
  for (dbdesign::ColumnId col : index.columns) {
    for (const dbdesign::ColumnRef& ref : c.vetoed_columns) {
      if (ref.table == index.table && ref.column == col) return true;
    }
  }
  return false;
}

double Budget(const DesignConstraints& c, double advisor_budget_pages) {
  return std::min(c.storage_budget_pages, advisor_budget_pages);
}

// Within the budget up to floating-point summation noise.
bool WithinBudget(double pages, double budget) {
  return pages <= budget * (1.0 + kCostTolerance) + kCostTolerance;
}

}  // namespace

bool SameCost(double a, double b) {
  double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= kCostTolerance * scale;
}

PhysicalDesign DesignOf(const std::vector<IndexDef>& indexes) {
  PhysicalDesign design;
  for (const IndexDef& idx : indexes) design.AddIndex(idx);
  return design;
}

Result<double> PriceClasses(DbmsBackend& backend,
                            const std::vector<TemplateClass>& classes,
                            const PhysicalDesign& design) {
  double total = 0.0;
  for (const TemplateClass& cls : classes) {
    Result<double> cost =
        backend.CostQuery(cls.representative, design, dbdesign::PlannerKnobs{});
    if (!cost.ok()) return cost.status();
    total += cls.weight * cost.value();
  }
  return total;
}

Result<PricedAnswer> PriceAnswer(DbmsBackend& backend,
                                 const std::vector<TemplateClass>& classes,
                                 const IndexRecommendation& rec) {
  PricedAnswer priced;
  Result<double> base = PriceClasses(backend, classes, PhysicalDesign{});
  if (!base.ok()) return base.status();
  Result<double> cost = PriceClasses(backend, classes, DesignOf(rec.indexes));
  if (!cost.ok()) return cost.status();
  priced.base_cost = base.value();
  priced.recommended_cost = cost.value();
  for (const IndexDef& idx : rec.indexes) {
    priced.size_pages += backend.EstimateIndexSize(idx).total_pages();
  }
  return priced;
}

Violations CheckRecommendation(const IndexRecommendation& rec,
                               const dbdesign::Workload& raw,
                               const PricedAnswer& priced,
                               const DesignConstraints& constraints,
                               double advisor_budget_pages) {
  Violations out;
  if (rec.recommended_cost < priced.recommended_cost &&
      !SameCost(rec.recommended_cost, priced.recommended_cost)) {
    out.push_back(StrFormat("recommended_cost %.17g below backend-priced %.17g",
                            rec.recommended_cost, priced.recommended_cost));
  }
  if (rec.per_query_cost.size() != raw.size()) {
    out.push_back("per_query_cost does not cover the workload");
  } else {
    double sum = 0.0;
    for (size_t i = 0; i < raw.size(); ++i) {
      sum += raw.WeightOf(i) * rec.per_query_cost[i];
    }
    if (!SameCost(sum, rec.recommended_cost)) {
      out.push_back(StrFormat("recommended_cost %.17g != per-query sum %.17g",
                              rec.recommended_cost, sum));
    }
  }
  if (!SameCost(rec.base_cost, priced.base_cost)) {
    out.push_back(StrFormat("base_cost %.17g != backend-priced %.17g",
                            rec.base_cost, priced.base_cost));
  }
  if (!SameCost(rec.total_size_pages, priced.size_pages)) {
    out.push_back(StrFormat("total_size_pages %.17g != backend sizes %.17g",
                            rec.total_size_pages, priced.size_pages));
  }
  double budget = Budget(constraints, advisor_budget_pages);
  if (!WithinBudget(priced.size_pages, budget)) {
    out.push_back(StrFormat("index set of %.3f pages exceeds budget %.3f",
                            priced.size_pages, budget));
  }
  for (const IndexDef& pin : constraints.pinned_indexes) {
    if (!Contains(rec.indexes, pin)) {
      out.push_back("pinned index " + pin.Key() + " missing");
    }
  }
  std::map<dbdesign::TableId, int> per_table;
  for (const IndexDef& idx : rec.indexes) {
    if (Vetoed(constraints, idx)) {
      out.push_back("vetoed index " + idx.Key() + " present");
    }
    ++per_table[idx.table];
  }
  for (const auto& [table, count] : per_table) {
    auto cap = constraints.max_indexes_per_table.find(table);
    if (cap != constraints.max_indexes_per_table.end() && count > cap->second) {
      out.push_back(StrFormat("table %d has %d indexes over its cap %d",
                              static_cast<int>(table), count, cap->second));
    }
  }
  if (!rec.infeasible_pins.empty()) out.push_back("infeasible pins reported");
  if (!rec.proven_optimal) out.push_back("answer not proven optimal");
  return out;
}

Result<double> PriceGreedyAnswer(dbdesign::GreedyAdvisor& greedy,
                                 DbmsBackend& backend,
                                 const std::vector<TemplateClass>& classes,
                                 const std::vector<dbdesign::CandidateIndex>& candidates,
                                 const DesignConstraints& constraints) {
  dbdesign::Workload workload;
  for (const TemplateClass& cls : classes) {
    workload.Add(cls.representative, cls.weight);
  }
  Result<dbdesign::GreedyResult> answer =
      greedy.TryRecommendWithCandidates(workload, candidates, constraints);
  if (!answer.ok()) return answer.status();
  return PriceClasses(backend, classes, DesignOf(answer.value().indexes));
}

void AnswerQuality::Add(const IndexRecommendation& rec,
                        const PricedAnswer& priced) {
  ++answers;
  vs_base_sum += priced.recommended_cost / priced.base_cost;
  if (!SameCost(rec.recommended_cost, priced.recommended_cost)) {
    ++overstated;
    max_overstatement = std::max(
        max_overstatement, rec.recommended_cost / priced.recommended_cost - 1.0);
  }
}

void AnswerQuality::AddGreedy(double priced, double greedy_priced) {
  ++vs_greedy;
  vs_greedy_sum += priced / greedy_priced;
  if (greedy_priced < priced && !SameCost(greedy_priced, priced)) ++greedy_wins;
}

void AnswerQuality::Merge(const AnswerQuality& o) {
  answers += o.answers;
  vs_base_sum += o.vs_base_sum;
  overstated += o.overstated;
  max_overstatement = std::max(max_overstatement, o.max_overstatement);
  vs_greedy += o.vs_greedy;
  vs_greedy_sum += o.vs_greedy_sum;
  greedy_wins += o.greedy_wins;
}

double AnswerQuality::mean_vs_base() const {
  return answers > 0 ? vs_base_sum / answers : 0.0;
}

double AnswerQuality::mean_vs_greedy() const {
  return vs_greedy > 0 ? vs_greedy_sum / vs_greedy : 0.0;
}

std::string AnswerQuality::Describe() const {
  std::string out = StrFormat(
      "checked %d answers; backend price / empty design's %.6f on average; "
      "%d claim a cost above the backend price of their design (up to "
      "+%.1f%%)",
      answers, mean_vs_base(), overstated, 100.0 * max_overstatement);
  if (vs_greedy > 0) {
    out += StrFormat("; %d compared with greedy: price / greedy's %.6f on "
                     "average, greedy cheaper on %d",
                     vs_greedy, mean_vs_greedy(), greedy_wins);
  }
  return out;
}

Violations CheckSameCost(const IndexRecommendation& got,
                         const IndexRecommendation& want,
                         const std::string& what) {
  if (SameCost(got.recommended_cost, want.recommended_cost)) return {};
  return {StrFormat("%s: cost %.17g != %.17g", what.c_str(),
                    got.recommended_cost, want.recommended_cost)};
}

Violations CheckSchedule(const DeploymentPlan& plan,
                         const std::vector<IndexDef>& recommended,
                         const DesignConstraints& constraints,
                         double advisor_budget_pages, double priced_full_cost) {
  Violations out;
  const dbdesign::MaterializationSchedule& s = plan.schedule;
  if (plan.indexes != recommended) {
    out.push_back("plan does not deploy the last recommendation");
  }
  std::vector<std::string> want;
  for (const IndexDef& idx : recommended) {
    if (!Contains(s.skipped, idx)) want.push_back(idx.Key());
  }
  std::vector<std::string> got;
  for (const dbdesign::ScheduleStep& step : s.steps) {
    got.push_back(step.index.Key());
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (got != want) {
    out.push_back("schedule is not a permutation of the recommended set");
  }
  double budget = Budget(constraints, advisor_budget_pages);
  double cumulative = 0.0;
  bool unpinned_seen = false;
  for (const dbdesign::ScheduleStep& step : s.steps) {
    bool pinned = Contains(constraints.pinned_indexes, step.index);
    if (pinned && unpinned_seen) {
      out.push_back("pinned " + step.index.Key() + " after an unpinned step");
    }
    unpinned_seen |= !pinned;
    cumulative += step.build_pages;
    if (!SameCost(cumulative, step.cumulative_pages)) {
      out.push_back(StrFormat("cumulative pages %.6f != summed %.6f",
                              step.cumulative_pages, cumulative));
    }
    if (!WithinBudget(step.cumulative_pages, budget)) {
      out.push_back(StrFormat("step %s at %.3f pages exceeds budget %.3f",
                              step.index.Key().c_str(), step.cumulative_pages,
                              budget));
    }
  }
  double end = s.steps.empty() ? s.base_cost : s.steps.back().cost_after;
  if (s.skipped.empty() && !SameCost(end, priced_full_cost)) {
    out.push_back(StrFormat("schedule ends at %.17g, full set prices at %.17g",
                            end, priced_full_cost));
  }
  return out;
}

Violations CheckSamePlan(const DeploymentPlan& got, const DeploymentPlan& want,
                         const std::string& what) {
  Violations out;
  if (got.schedule.steps.size() != want.schedule.steps.size()) {
    out.push_back(what + ": schedules differ in length");
    return out;
  }
  for (size_t i = 0; i < got.schedule.steps.size(); ++i) {
    if (!(got.schedule.steps[i].index == want.schedule.steps[i].index)) {
      out.push_back(what + ": schedules differ in order");
      break;
    }
  }
  return out;
}

Violations CheckSameAsSolo(const std::vector<IndexRecommendation>& got,
                           const DeploymentPlan* got_plan,
                           const std::vector<IndexRecommendation>& want,
                           const DeploymentPlan& want_plan) {
  if (got.size() > want.size()) return {"more answers than solo"};
  Violations out;
  for (size_t i = 0; i < got.size(); ++i) {
    std::string what = StrFormat("answer %zu vs solo", i);
    if (got[i].indexes != want[i].indexes) out.push_back(what + ": index sets differ");
    if (got[i].recommended_cost != want[i].recommended_cost) {
      out.push_back(StrFormat("%s: cost %.17g != %.17g", what.c_str(),
                              got[i].recommended_cost, want[i].recommended_cost));
    }
  }
  if (got_plan != nullptr) {
    Violations plan = CheckSamePlan(*got_plan, want_plan, "plan vs solo");
    out.insert(out.end(), plan.begin(), plan.end());
  }
  return out;
}

}  // namespace perfbench
