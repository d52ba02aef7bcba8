#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "util/str.h"

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t item) {
  // splitmix64 over the three parts: nearby seeds give unrelated streams.
  auto mix = [](uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  return mix(mix(mix(seed) ^ stream) ^ item);
}

double Samples::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

std::string Samples::Describe() const {
  std::string out = dbdesign::StrFormat("p50 %.3f ms", Median());
  if (size() >= 1000) {
    out += dbdesign::StrFormat(", p99 %.3f ms", Percentile(0.99));
  } else if (size() >= 100) {
    out += dbdesign::StrFormat(", p90 %.3f ms", Percentile(0.90));
  }
  return out + dbdesign::StrFormat(" (n=%zu)", size());
}

void OpSamples::Append(const OpSamples& o) {
  trace_load.Append(o.trace_load);
  recommend_cold.Append(o.recommend_cold);
  refine.Append(o.refine);
  workload_delta.Append(o.workload_delta);
  plan.Append(o.plan);
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.voluntary_ctx_switches = static_cast<double>(ru.ru_nvcsw);
  u.involuntary_ctx_switches = static_cast<double>(ru.ru_nivcsw);
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  return u;
}

Usage operator-(Usage a, const Usage& b) {
  a.cpu_s -= b.cpu_s;
  a.voluntary_ctx_switches -= b.voluntary_ctx_switches;
  a.involuntary_ctx_switches -= b.involuntary_ctx_switches;
  a.minor_faults -= b.minor_faults;
  return a;
}

Usage& operator+=(Usage& a, const Usage& b) {
  a.cpu_s += b.cpu_s;
  a.voluntary_ctx_switches += b.voluntary_ctx_switches;
  a.involuntary_ctx_switches += b.involuntary_ctx_switches;
  a.minor_faults += b.minor_faults;
  return a;
}

RssSampler::RssSampler() : thread_([this] { Loop(); }) {}

RssSampler::~RssSampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void RssSampler::Resume() {
  malloc_trim(0);
  std::lock_guard<std::mutex> lock(mu_);
  measuring_ = true;
  Sample();
  cv_.notify_all();
}

void RssSampler::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  Sample();
  measuring_ = false;
}

double RssSampler::PeakMb() {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_mb_;
}

void RssSampler::Sample() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return;
  unsigned long size = 0;
  unsigned long resident = 0;
  if (std::fscanf(f, "%lu %lu", &size, &resident) == 2) {
    double mb = static_cast<double>(resident) *
                static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
    peak_mb_ = std::max(peak_mb_, mb);
  }
  std::fclose(f);
}

void RssSampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (measuring_) {
      Sample();
      cv_.wait_for(lock, std::chrono::milliseconds(2), [&] { return stop_; });
    } else {
      cv_.wait(lock, [&] { return stop_ || measuring_; });
    }
  }
}

void RunResult::Check(const Violations& v, const std::string& where) {
  for (const std::string& msg : v) {
    // Keep the report readable: the count matters, not every repeat.
    if (violations.size() < 20) violations.push_back(where + ": " + msg);
    else if (violations.size() == 20) violations.push_back("...");
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void ReportEndToEnd(const OpSamples& ops, double setup_s,
                    double requests_per_cpu_s, double peak_rss_mb,
                    const AnswerQuality& quality, RunResult* result) {
  result->Metric("setup_s", setup_s, "s");
  result->Metric("trace_load_ms.p50", ops.trace_load.Median(), "ms");
  result->Metric("recommend_cold_ms.p50", ops.recommend_cold.Median(), "ms");
  result->Metric("refine_ms.p50", ops.refine.Median(), "ms");
  result->Metric("workload_delta_ms.p50", ops.workload_delta.Median(), "ms");
  result->Metric("plan_ms.p50", ops.plan.Median(), "ms");
  result->Metric("requests_per_cpu_s", requests_per_cpu_s, "req/cpu-s");
  result->Metric("peak_rss_mb", peak_rss_mb, "MB");
  result->Metric("cost_vs_base", quality.mean_vs_base(), "ratio");
  result->Note("trace_load      " + ops.trace_load.Describe());
  result->Note("recommend_cold  " + ops.recommend_cold.Describe());
  result->Note("refine          " + ops.refine.Describe());
  result->Note("workload_delta  " + ops.workload_delta.Describe());
  result->Note("plan            " + ops.plan.Describe());
}

namespace {

struct LayerMetric {
  std::string name;
  std::string unit;
  bool per_session;
};

const std::vector<LayerMetric>& LayerTable() {
  static const std::vector<LayerMetric> table = {
      {"sql.parse_bind_ms", "ms", true},
      {"workload.compress_ms", "ms", true},
      {"workload.template_classes", "count", true},
      {"workload.compression_factor", "ratio", false},
      {"cophy.candidates_ms", "ms", true},
      {"cophy.candidates", "count", true},
      {"inum.populate_ms", "ms", true},
      {"inum.populates", "count", true},
      {"cophy.atom_build_ms", "ms", true},
      {"cophy.atoms", "count", true},
      {"solver.solve_ms", "ms", true},
      {"solver.lp_pivots", "count", true},
      {"solver.bnb_nodes", "count", true},
      {"solver.clusters_solved", "count", true},
      {"solver.clusters_reused", "count", true},
      {"solver.monolithic_fallbacks", "count", true},
      {"session.refines", "count", true},
      {"session.certificate_reuses", "count", true},
      {"interaction.doi_ms", "ms", true},
      {"interaction.doi_pairs", "count", true},
      {"interaction.doi_rows_computed", "count", true},
      {"interaction.doi_rows_reused", "count", true},
      {"interaction.schedule_ms", "ms", true},
      {"interaction.schedules_reused", "count", true},
      {"backend.optimizer_calls", "count", true},
      {"backend.cost_batches", "count", true},
      {"backend.ms", "ms", true},
      {"server.lock_wait_ms", "ms", true},
      {"server.atom_store.lookups", "count", true},
      {"server.atom_store.hits", "count", true},
      {"server.atom_store.misses", "count", true},
      {"server.atom_store.publishes", "count", true},
      {"server.atom_store.repopulates", "count", true},
      {"server.atom_store.races_discarded", "count", true},
      {"server.atom_store.hit_rate", "ratio", false},
      {"server.atom_store.evictions", "count", true},
      {"server.atom_store.spills", "count", true},
      {"server.atom_store.reloads", "count", true},
      {"server.atom_store.reload_failures", "count", true},
      {"server.atom_store.peak_hot_bytes", "bytes", false},
      {"server.coalescer.calls", "count", true},
      {"server.coalescer.round_trips", "count", true},
      {"server.coalescer.trips_saved", "count", true},
      {"process.cpu_s", "s", true},
      {"process.cpu_per_wall", "ratio", false},
      {"process.voluntary_ctx_switches", "count", true},
      {"process.involuntary_ctx_switches", "count", true},
      {"process.minor_faults", "count", true},
      {"check.cost_vs_greedy", "ratio", false},
      {"check.greedy_wins_share", "ratio", false},
      {"check.overstated_share", "ratio", false},
      {"trace.sessions", "count", false},
      {"trace.coverage", "ratio", false},
      {"trace.overhead", "ratio", false},
  };
  return table;
}

}  // namespace

double LayerReport::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void LayerReport::Emit(double sessions, RunResult* result) const {
  for (const LayerMetric& m : LayerTable()) {
    double v = Get(m.name);
    if (m.per_session) v = sessions > 0 ? v / sessions : 0.0;
    result->Metric(m.name, v, m.unit);
  }
}

void ReportProcess(const Usage& used, double wall_s, LayerReport* layers) {
  layers->Set("process.cpu_s", used.cpu_s);
  layers->Set("process.cpu_per_wall", wall_s > 0 ? used.cpu_s / wall_s : 0.0);
  layers->Set("process.voluntary_ctx_switches", used.voluntary_ctx_switches);
  layers->Set("process.involuntary_ctx_switches", used.involuntary_ctx_switches);
  layers->Set("process.minor_faults", used.minor_faults);
}

void ReportQuality(const AnswerQuality& quality, LayerReport* layers) {
  layers->Set("check.cost_vs_greedy", quality.mean_vs_greedy());
  layers->Set("check.greedy_wins_share",
              quality.greedy_wins / std::max(1.0, 1.0 * quality.vs_greedy));
  layers->Set("check.overstated_share",
              quality.overstated / std::max(1.0, 1.0 * quality.answers));
}

}  // namespace perfbench
