// TimingBackend: a DbmsBackend decorator that forwards every call to the
// wrapped backend and records how many batched cost calls crossed the
// seam and how long all cost calls took. Traced runs
// register it in place of the plain backend; untraced runs never see it.

#ifndef PERFBENCH_TIMING_BACKEND_H_
#define PERFBENCH_TIMING_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "backend/backend.h"

namespace perfbench {

class TimingBackend final : public dbdesign::DbmsBackend {
 public:
  explicit TimingBackend(dbdesign::DbmsBackend& inner) : inner_(&inner) {}

  TimingBackend(const TimingBackend&) = delete;
  TimingBackend& operator=(const TimingBackend&) = delete;

  std::string name() const override { return inner_->name(); }
  const dbdesign::CostParams& cost_params() const override {
    return inner_->cost_params();
  }
  const dbdesign::Catalog& catalog() const override {
    return inner_->catalog();
  }
  const std::vector<dbdesign::TableStats>& all_stats() const override {
    return inner_->all_stats();
  }
  dbdesign::Status RefreshStatistics(
      dbdesign::TableId table,
      const dbdesign::AnalyzeOptions& options) override {
    return inner_->RefreshStatistics(table, options);
  }
  dbdesign::IndexSizeEstimate EstimateIndexSize(
      const dbdesign::IndexDef& index) const override {
    return inner_->EstimateIndexSize(index);
  }
  dbdesign::PhysicalDesign CurrentDesign() const override {
    return inner_->CurrentDesign();
  }
  dbdesign::Result<dbdesign::PlanResult> OptimizeQuery(
      const dbdesign::BoundQuery& query, const dbdesign::PhysicalDesign& design,
      const dbdesign::PlannerKnobs& knobs) override;
  dbdesign::Result<double> CostQuery(
      const dbdesign::BoundQuery& query, const dbdesign::PhysicalDesign& design,
      const dbdesign::PlannerKnobs& knobs) override;
  dbdesign::Result<std::vector<double>> CostBatch(
      std::span<const dbdesign::BoundQuery> queries,
      const dbdesign::PhysicalDesign& design,
      const dbdesign::PlannerKnobs& knobs) override;
  PartialCosts CostBatchPartial(std::span<const dbdesign::BoundQuery> queries,
                                const dbdesign::PhysicalDesign& design,
                                const dbdesign::PlannerKnobs& knobs) override;
  dbdesign::JoinControlCapabilities join_control() const override {
    return inner_->join_control();
  }
  uint64_t num_optimizer_calls() const override {
    return inner_->num_optimizer_calls();
  }
  void ResetCallCount() override { inner_->ResetCallCount(); }

  /// Batched cost calls that crossed the seam.
  uint64_t batches() const { return batches_.load(); }
  /// Wall time spent inside the wrapped backend, summed over threads.
  double busy_ms() const { return static_cast<double>(busy_ns_.load()) / 1e6; }

 private:
  void Record(int64_t ns, bool batch);

  dbdesign::DbmsBackend* inner_;
  std::atomic<uint64_t> batches_{0};
  std::atomic<int64_t> busy_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_BACKEND_H_
