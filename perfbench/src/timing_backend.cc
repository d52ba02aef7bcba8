#include "timing_backend.h"

#include <chrono>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void TimingBackend::Record(int64_t ns, bool batch) {
  if (batch) batches_.fetch_add(1);
  busy_ns_.fetch_add(ns);
}

dbdesign::Result<dbdesign::PlanResult> TimingBackend::OptimizeQuery(
    const dbdesign::BoundQuery& query, const dbdesign::PhysicalDesign& design,
    const dbdesign::PlannerKnobs& knobs) {
  int64_t t0 = NowNs();
  auto out = inner_->OptimizeQuery(query, design, knobs);
  Record(NowNs() - t0, false);
  return out;
}

dbdesign::Result<double> TimingBackend::CostQuery(
    const dbdesign::BoundQuery& query, const dbdesign::PhysicalDesign& design,
    const dbdesign::PlannerKnobs& knobs) {
  int64_t t0 = NowNs();
  auto out = inner_->CostQuery(query, design, knobs);
  Record(NowNs() - t0, false);
  return out;
}

dbdesign::Result<std::vector<double>> TimingBackend::CostBatch(
    std::span<const dbdesign::BoundQuery> queries,
    const dbdesign::PhysicalDesign& design,
    const dbdesign::PlannerKnobs& knobs) {
  int64_t t0 = NowNs();
  auto out = inner_->CostBatch(queries, design, knobs);
  Record(NowNs() - t0, true);
  return out;
}

dbdesign::DbmsBackend::PartialCosts TimingBackend::CostBatchPartial(
    std::span<const dbdesign::BoundQuery> queries,
    const dbdesign::PhysicalDesign& design,
    const dbdesign::PlannerKnobs& knobs) {
  int64_t t0 = NowNs();
  auto out = inner_->CostBatchPartial(queries, design, knobs);
  Record(NowNs() - t0, true);
  return out;
}

}  // namespace perfbench
