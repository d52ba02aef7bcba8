// Answer checker: every answer the designer gives in a benchmark run is
// held against computations made apart from the answering path (the
// backend's what-if optimizer, the backend's index-size estimates, a
// fresh session) or against properties the method must have. Each
// Check function returns the list of violations; an empty list means
// the answer passed. AnswerQuality measures how good the passing
// answers are against the greedy advisor on the same problems.

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <string>
#include <vector>

#include "backend/backend.h"
#include "cophy/greedy.h"
#include "core/session.h"
#include "workload/compress.h"

namespace perfbench {

using Violations = std::vector<std::string>;

/// Relative tolerance for backend-priced costs.
inline constexpr double kCostTolerance = 1e-9;

/// True when a and b agree within kCostTolerance relative to the larger.
bool SameCost(double a, double b);

/// Sum over template classes of weight x the backend's what-if cost of
/// the class representative under `design`.
dbdesign::Result<double> PriceClasses(
    dbdesign::DbmsBackend& backend,
    const std::vector<dbdesign::TemplateClass>& classes,
    const dbdesign::PhysicalDesign& design);

/// The design made of `indexes`.
dbdesign::PhysicalDesign DesignOf(const std::vector<dbdesign::IndexDef>& indexes);

/// Backend-priced reference for one recommendation.
struct PricedAnswer {
  double base_cost = 0.0;         ///< classes priced under the empty design
  double recommended_cost = 0.0;  ///< classes priced under the answer
  double size_pages = 0.0;        ///< backend size estimates, summed
};

/// Prices `rec` through the backend (costs and index sizes).
dbdesign::Result<PricedAnswer> PriceAnswer(
    dbdesign::DbmsBackend& backend,
    const std::vector<dbdesign::TemplateClass>& classes,
    const dbdesign::IndexRecommendation& rec);

/// A Recommend/Refine answer over the raw workload `raw`: the base cost
/// equals the backend-priced one; the recommended cost is the weighted
/// sum of the per-query costs and is no lower than the backend-priced
/// cost of the recommended design; the size, summed from the backend's
/// estimates, is within the effective budget; pins are present, vetoes
/// absent, per-table caps held, and the answer is proven optimal.
///
/// The recommended cost is held to "no lower", not "equal": CoPhy
/// prices a design through its pruned atom set (the cheapest
/// max_atoms_per_query atoms per query), so when the best plan under
/// the chosen design was pruned its claim exceeds the optimizer's price.
/// The claim can never be below it.
Violations CheckRecommendation(const dbdesign::IndexRecommendation& rec,
                               const dbdesign::Workload& raw,
                               const PricedAnswer& priced,
                               const dbdesign::DesignConstraints& constraints,
                               double advisor_budget_pages);

/// The greedy advisor's answer to the same problem as a designer answer
/// (the same template classes, candidate universe and constraints),
/// priced by the backend like PriceAnswer prices the designer's.
dbdesign::Result<double> PriceGreedyAnswer(
    dbdesign::GreedyAdvisor& greedy, dbdesign::DbmsBackend& backend,
    const std::vector<dbdesign::TemplateClass>& classes,
    const std::vector<dbdesign::CandidateIndex>& candidates,
    const dbdesign::DesignConstraints& constraints);

/// Quality of a run's answers, each priced by the backend. The checks
/// above cannot see a worse design that still meets its constraints;
/// this tally can: a designer that returns worse designs raises
/// mean_vs_base() and mean_vs_greedy().
struct AnswerQuality {
  int answers = 0;
  /// Sum over answers of the backend price of the design over the
  /// backend price of the empty design.
  double vs_base_sum = 0.0;
  /// Answers whose claimed cost exceeds the backend price of their
  /// design (see CheckRecommendation), and the largest relative excess.
  int overstated = 0;
  double max_overstatement = 0.0;
  /// Answers compared with the greedy advisor's answer to the same
  /// problem, the sum of backend price / greedy's backend price over
  /// them, and how many greedy beats.
  int vs_greedy = 0;
  double vs_greedy_sum = 0.0;
  int greedy_wins = 0;

  /// Tallies one answer and its backend price.
  void Add(const dbdesign::IndexRecommendation& rec, const PricedAnswer& priced);
  /// Tallies the greedy comparison of an answer priced at `priced`.
  void AddGreedy(double priced, double greedy_priced);
  void Merge(const AnswerQuality& other);
  /// Mean over answers of price / empty-design price; 0 with none.
  double mean_vs_base() const;
  /// Mean over compared answers of price / greedy's price (below 1:
  /// better designs than greedy); 0 with none.
  double mean_vs_greedy() const;
  /// "checked N answers; ..." for the run's notes.
  std::string Describe() const;
};

/// Two answers to the same problem are equally good: the same
/// recommended cost (within kCostTolerance). Their index sets may differ
/// when the problem has several optima.
Violations CheckSameCost(const dbdesign::IndexRecommendation& got,
                         const dbdesign::IndexRecommendation& want,
                         const std::string& what);

/// A deployment schedule: its steps are a permutation of the
/// recommended set less the skipped indexes, pinned steps come first,
/// cumulative pages stay within the budget at every step and add up,
/// and the schedule ends at `priced_full_cost`, the backend-priced cost
/// of the full recommended set.
Violations CheckSchedule(const dbdesign::DeploymentPlan& plan,
                         const std::vector<dbdesign::IndexDef>& recommended,
                         const dbdesign::DesignConstraints& constraints,
                         double advisor_budget_pages, double priced_full_cost);

/// Two plans schedule the same indexes in the same order.
Violations CheckSamePlan(const dbdesign::DeploymentPlan& got,
                         const dbdesign::DeploymentPlan& want,
                         const std::string& what);

/// A tenant's answers (a prefix of the script's) and plan (null when
/// the tenant stopped before planning) equal, bit for bit, those of the
/// same script run alone in a plain session on the same schema and trace.
Violations CheckSameAsSolo(
    const std::vector<dbdesign::IndexRecommendation>& got,
    const dbdesign::DeploymentPlan* got_plan,
    const std::vector<dbdesign::IndexRecommendation>& want,
    const dbdesign::DeploymentPlan& want_plan);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
