// Shared plumbing of the end-to-end benchmark: run options, the result
// every workload fills in, latency samples, and process usage.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checker.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the run may write temporary files under (spill files).
  std::string scratch_dir = ".";
};

/// Milliseconds on the steady clock.
double NowMs();

/// Deterministic per-item seed derived from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t item);

/// Latency samples of one operation type.
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Sum() const;
  /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  /// "p50 1.23 ms, p90 4.56 ms (n=120)": the median plus the highest
  /// percentile with at least ten samples beyond it.
  std::string Describe() const;

 private:
  std::vector<double> values_;
};

/// The end-to-end operation types every workload measures.
struct OpSamples {
  Samples trace_load;
  Samples recommend_cold;
  Samples refine;
  Samples workload_delta;
  Samples plan;

  void Append(const OpSamples& o);
};

/// getrusage(RUSAGE_SELF) in the units the report uses.
struct Usage {
  double cpu_s = 0.0;
  double voluntary_ctx_switches = 0.0;
  double involuntary_ctx_switches = 0.0;
  double minor_faults = 0.0;
};
Usage ReadUsage();
/// Field-wise difference and sum of the counters.
Usage operator-(Usage a, const Usage& b);
Usage& operator+=(Usage& a, const Usage& b);

/// Peak resident set over the measured phases only. The process-wide
/// peak (ru_maxrss) would also hold the reference sessions, the checker
/// and the repeated set-ups, so a thread samples the current resident
/// set (/proc/self/statm) every 2 ms while measuring.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Starts (or resumes) measuring. Memory that earlier, unmeasured
  /// phases freed is first returned to the system (malloc_trim), so
  /// that only memory in use counts.
  void Resume();
  void Pause();
  double PeakMb();

 private:
  void Sample();  // requires mu_
  void Loop();

  std::mutex mu_;
  std::condition_variable cv_;
  bool measuring_ = false;
  bool stop_ = false;
  double peak_mb_ = 0.0;
  std::thread thread_;  // last: it uses the members above
};

/// What one workload run reports.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Violations found by the answer checker (empty = correct).
  Violations violations;
  /// Metric name -> (value, unit), in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, std::make_pair(value, unit));
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  void Check(const Violations& v, const std::string& where);
  bool correct() const { return violations.empty(); }
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Fills the end-to-end metrics shared by every workload.
/// `requests_per_cpu_s` is operations completed per second of process
/// CPU time in the measured phase: on a shared VM the hypervisor's steal
/// time moved the wall-clock rate of four busy clients by 25 % between
/// runs, while CPU time stops with the clients.
void ReportEndToEnd(const OpSamples& ops, double setup_s,
                    double requests_per_cpu_s, double peak_rss_mb,
                    const AnswerQuality& quality, RunResult* result);

/// Per-layer values of one traced run; unset layers report 0.
class LayerReport {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Add(const std::string& name, double value) { values_[name] += value; }
  double Get(const std::string& name) const;
  /// Copies every per-layer metric into `result`, in a fixed order,
  /// dividing the ones counted per session by `sessions`.
  void Emit(double sessions, RunResult* result) const;

 private:
  std::map<std::string, double> values_;
};

/// Fills the process.* layer metrics from what the measured phase used.
void ReportProcess(const Usage& used, double wall_s, LayerReport* layers);

/// Fills the check.* layer metrics from the run's answer quality (the
/// greedy comparison runs in traced runs only).
void ReportQuality(const AnswerQuality& quality, LayerReport* layers);

// Workload entry points.
RunResult RunDbaLoop(const RunOptions& options);
RunResult RunWideTemplates(const RunOptions& options);
RunResult RunTenantFleet(const RunOptions& options);
RunResult RunTenantChurn(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
