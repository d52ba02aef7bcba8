// The multi-tenant workloads: four client threads in one process drive a
// TuningServer in closed loops. Each client opens a tenant session,
// runs a tenant script through WithSession, closes it and opens the
// next one. A run has three phases, each over the whole trace pool:
//
//   cold wave         every pool trace once with the full script
//                     (untimed: it warms the atom store);
//   refine storm      half the measured time: open, load, Recommend,
//                     Recommend again, a veto and a pin Refine,
//                     AddQueries + Recommend, PlanDeployment, close;
//   new-tenant wave   the other half: open, load, Recommend (the new
//                     tenant), Recommend again (warm), close. This is
//                     the store-served path the request rate measures.
//
//   tenant_fleet  four SDSS schemas, an unbounded atom store that holds
//                 the working set, so every measured tenant is a new
//                 tenant on a warm schema.
//   tenant_churn  twelve smaller schemas and an atom store budgeted at a
//                 quarter of the working set, spilling evicted rows to a
//                 directory under the run's scratch directory.
//
// Each pool trace is first run alone, outside the server, in a plain
// DesignSession; that solo run is checked in full, and every tenant's
// answers must equal it.

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "cophy/atom_codec.h"
#include "inputs.h"
#include "script.h"
#include "server/server.h"
#include "timing_backend.h"
#include "util/logging.h"
#include "util/str.h"
#include "workload/compress.h"

namespace perfbench {
namespace {

using dbdesign::ConstraintDelta;
using dbdesign::DeploymentPlan;
using dbdesign::Designer;
using dbdesign::DesignSession;
using dbdesign::IndexRecommendation;
using dbdesign::Result;
using dbdesign::Rng;
using dbdesign::Status;
using dbdesign::StrFormat;
using dbdesign::Workload;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kClients = 4;

struct TenantShape {
  uint64_t stream;       ///< seed stream of the workload's inputs
  int schemas;
  int traces_per_schema;
  int rows;              ///< photoobj rows of schema 0
  int rows_step;         ///< added per further schema
  int trace_queries;
  int batch_queries;
  bool bounded;          ///< atom store budgeted below the working set
};

constexpr TenantShape kFleet = {3, 4, 64, 3000, 250, 24, 6, false};
constexpr TenantShape kChurn = {4, 12, 12, 1500, 50, 24, 6, true};
/// The churn store holds this share of the working set.
constexpr double kChurnBudgetShare = 0.25;

struct PoolTrace {
  int schema = 0;
  std::vector<std::string> sql;
  std::vector<std::string> batch;  ///< new-template AddQueries batch
};

/// A tenant's answers, in script order.
struct TenantAnswers {
  std::vector<IndexRecommendation> recs;  ///< recommend x2, refine x2, delta
  std::vector<dbdesign::DesignConstraints> constraints;  ///< per answer
  /// Per answer, the session's candidate universe (solo runs only).
  std::vector<std::vector<dbdesign::CandidateIndex>> candidates;
  DeploymentPlan plan;
};

// ---------------------------------------------------------------------
// The tenant script, written once over an abstract way to reach the
// session (a server's WithSession, or a plain solo session).

struct ScriptHooks {
  /// Runs fn on the session (an error when the session is gone).
  std::function<Status(const std::function<void(DesignSession&)>&)> with;
  /// Timed operations add their latency here (null: untimed).
  OpSamples* ops = nullptr;
  /// Per-layer accumulation (null: untraced).
  LayerReport* layers = nullptr;
  std::mutex* layers_mu = nullptr;
  /// Remember the session's atom rows and candidate universe after each
  /// answer (solo runs, outside any server lock).
  bool solo = false;
  /// The refine storm's script; otherwise the new-tenant wave's, which
  /// is its prefix up to the warm re-recommend.
  bool storm = true;
};

class TenantScript {
 public:
  TenantScript(const PoolTrace& trace, const dbdesign::Catalog& catalog,
               ScriptHooks hooks)
      : trace_(trace), catalog_(catalog), hooks_(std::move(hooks)) {}

  // Runs the script; the answers land in answers(). Counts each
  // operation in *attempted and a failed one in *failed, and returns
  // false on the first failure. Like a session, a tenant adds the mean
  // of its refines as one sample.
  bool Run(uint64_t* attempted, uint64_t* failed) {
    attempted_ = attempted;
    failed_ = failed;
    bool ok = Script();
    if (hooks_.ops != nullptr && refines_.size() > 0) {
      hooks_.ops->refine.Add(refines_.Sum() / refines_.size());
    }
    if (hooks_.layers != nullptr) RecordLayers();
    return ok;
  }

  const TenantAnswers& answers() const { return answers_; }
  const Status& failure() const { return failure_; }
  /// Distinct atom rows the session held after any answer (with
  /// ScriptHooks::solo).
  const std::set<std::shared_ptr<const dbdesign::CoPhyAtomRow>>& rows_seen()
      const {
    return rows_seen_;
  }

 private:
  bool Script() {
    if (!Load()) return false;
    if (!Answer(Op(&OpSamples::recommend_cold),
                [](DesignSession& s) { return s.Recommend(); })) {
      return false;
    }
    if (!Answer(nullptr,
                [](DesignSession& s) { return s.Recommend(); })) {
      return false;
    }
    if (!hooks_.storm) return true;
    if (!Refine([](const IndexRecommendation& r, DesignSession& s) {
          return VetoUsed(r, s.constraints());
        })) {
      return false;
    }
    if (!Refine([](const IndexRecommendation& r, DesignSession&) {
          return PinTwo(r);
        })) {
      return false;
    }
    Result<Workload> batch = Bind(catalog_, trace_.batch);
    if (!batch.ok()) {
      ++*attempted_;
      return Fail(batch.status());
    }
    if (!Answer(Op(&OpSamples::workload_delta), [&](DesignSession& s) {
          s.AddQueries(batch.value().queries);
          return s.Recommend();
        })) {
      return false;
    }
    Result<DeploymentPlan> plan = Status::Internal("no plan");
    Status st = Call(Op(&OpSamples::plan), [&](DesignSession& s) {
      plan = s.PlanDeployment();
      populates_ = s.inum_populate_count();
    });
    if (!st.ok()) return Fail(st);
    if (!plan.ok()) return Fail(plan.status());
    answers_.plan = std::move(plan).value();
    planned_ = true;
    return true;
  }

  void RecordLayers() {
    std::lock_guard<std::mutex> lock(*hooks_.layers_mu);
    LayerReport& l = *hooks_.layers;
    l.Add("inum.populates", static_cast<double>(populates_));
    if (planned_) {
      l.Add("interaction.doi_rows_computed",
            static_cast<double>(answers_.plan.doi_rows_computed));
      l.Add("interaction.doi_rows_reused",
            static_cast<double>(answers_.plan.doi_rows_reused));
      l.Add("interaction.schedules_reused", answers_.plan.schedule_reused);
    }
    l.Add("server.lock_wait_ms", lock_wait_ms_);
    l.Add("sql.parse_bind_ms", parse_ms_);
    l.Add("workload.compress_ms", compress_ms_);
    l.Add("workload.template_classes", static_cast<double>(classes_));
    l.Add("trace.raw_queries", static_cast<double>(trace_.sql.size()));
    l.Add("trace.op_ms", op_ms_);
    for (size_t i = 0; i < answers_.recs.size(); ++i) {
      const IndexRecommendation& r = answers_.recs[i];
      if (i == 2 || i == 3) {
        l.Add("session.refines", 1);
        if (CertificateReuse(r)) l.Add("session.certificate_reuses", 1);
      }
      if (CertificateReuse(r)) continue;
      l.Add("solver.solve_ms", r.solve_time_sec * 1000.0);
      l.Add("solver.lp_pivots", r.lp_pivots);
      l.Add("solver.bnb_nodes", r.bnb_nodes);
      l.Add("solver.clusters_solved", r.clusters_solved);
      l.Add("solver.clusters_reused", r.clusters_reused);
      l.Add("solver.monolithic_fallbacks", r.solved_monolithic ? 1 : 0);
    }
  }

  Samples* Op(Samples OpSamples::*member) {
    return hooks_.ops == nullptr ? nullptr : &(hooks_.ops->*member);
  }

  // The operation just attempted failed.
  bool Fail(const Status& s) {
    ++*failed_;
    failure_ = s;
    return false;
  }

  // One request through the hooks, timed from the call to its return;
  // lock wait runs from the call to entering the callback.
  Status Call(Samples* samples, const std::function<void(DesignSession&)>& fn) {
    ++*attempted_;
    double t0 = NowMs();
    Status st = hooks_.with([&](DesignSession& s) {
      lock_wait_ms_ += NowMs() - t0;
      fn(s);
    });
    double ms = NowMs() - t0;
    op_ms_ += ms;
    if (samples != nullptr) samples->Add(ms);
    return st;
  }

  bool Load() {
    // The load's latency runs from the start of parsing.
    ++*attempted_;
    double t0 = NowMs();
    Result<Workload> w = Bind(catalog_, trace_.sql);
    double parsed = NowMs();
    parse_ms_ += parsed - t0;
    if (!w.ok()) return Fail(w.status());
    Status st = hooks_.with([&](DesignSession& s) {
      double t1 = NowMs();
      lock_wait_ms_ += t1 - parsed;
      s.SetWorkload(std::move(w).value());
      classes_ = s.num_template_classes();
      compress_ms_ += NowMs() - t1;
    });
    double ms = NowMs() - t0;
    op_ms_ += ms;
    if (hooks_.ops != nullptr) hooks_.ops->trace_load.Add(ms);
    return st.ok() ? true : Fail(st);
  }

  template <typename Fn>
  bool Answer(Samples* samples, Fn&& fn) {
    Result<IndexRecommendation> rec = Status::Internal("not run");
    dbdesign::DesignConstraints constraints;
    Status st = Call(samples, [&](DesignSession& s) {
      rec = fn(s);
      constraints = s.constraints();
      populates_ = s.inum_populate_count();
      if (hooks_.solo) NoteState(s);
    });
    if (!st.ok()) return Fail(st);
    if (!rec.ok()) return Fail(rec.status());
    answers_.recs.push_back(std::move(rec).value());
    answers_.constraints.push_back(std::move(constraints));
    return true;
  }

  void NoteState(const DesignSession& s) {
    for (const auto& row : s.prepared_state().rows) rows_seen_.insert(row);
    answers_.candidates.push_back(s.prepared_state().candidates);
  }

  template <typename EditFn>
  bool Refine(EditFn&& edit) {
    const IndexRecommendation last = answers_.recs.back();
    return Answer(hooks_.ops == nullptr ? nullptr : &refines_,
                  [&](DesignSession& s) {
      ConstraintDelta delta = edit(last, s);
      return s.Refine(delta);
    });
  }

  const PoolTrace& trace_;
  const dbdesign::Catalog& catalog_;
  ScriptHooks hooks_;
  uint64_t* attempted_ = nullptr;
  uint64_t* failed_ = nullptr;
  TenantAnswers answers_;
  Status failure_;
  double lock_wait_ms_ = 0.0;
  double parse_ms_ = 0.0;
  double compress_ms_ = 0.0;
  double op_ms_ = 0.0;
  size_t classes_ = 0;
  std::set<std::shared_ptr<const dbdesign::CoPhyAtomRow>> rows_seen_;
  Samples refines_;
  uint64_t populates_ = 0;  ///< the session's INUM populates so far
  bool planned_ = false;
};

// ---------------------------------------------------------------------
// Solo reference: the script in a plain session, then checked in full.

struct Solo {
  TenantAnswers answers;
  size_t working_set_bytes = 0;  ///< atom rows the script builds
  Violations violations;
  AnswerQuality quality;
  int ties = 0;  ///< refines with another index set than a fresh session
};

// `compare_greedy` also solves each answer's problem with the greedy
// advisor (traced runs: it costs more than the rest of the checks).
Solo RunSolo(const PoolTrace& trace, Substrate& sub, bool compare_greedy) {
  Solo solo;
  Designer designer(*sub.backend);
  DesignSession session(designer);
  ScriptHooks hooks;
  hooks.with = [&](const std::function<void(DesignSession&)>& fn) {
    fn(session);
    return Status::OK();
  };
  hooks.solo = true;
  TenantScript script(trace, sub.backend->catalog(), hooks);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (!script.Run(&attempted, &failed)) {
    solo.violations.push_back("solo script failed: " + script.failure().ToString());
    return solo;
  }
  solo.answers = script.answers();
  for (const auto& row : script.rows_seen()) {
    solo.working_set_bytes += dbdesign::AtomRowBytes(*row);
  }

  // Full checks of the solo answers.
  dbdesign::DbmsBackend& backend = *sub.backend;
  Result<Workload> before = Bind(backend.catalog(), trace.sql);
  Result<Workload> batch = Bind(backend.catalog(), trace.batch);
  if (!before.ok() || !batch.ok()) {
    solo.violations.push_back("inputs do not bind");
    return solo;
  }
  Workload after = before.value();
  for (const auto& q : batch.value().queries) after.Add(q);
  auto classes_of = [](const Workload& w) {
    dbdesign::TemplateClassTable table;
    for (size_t i = 0; i < w.size(); ++i) table.AddInstance(w.queries[i], w.WeightOf(i));
    return table.classes();
  };
  auto classes_before = classes_of(before.value());
  auto classes_after = classes_of(after);
  const TenantAnswers& a = solo.answers;
  dbdesign::GreedyAdvisor greedy(backend);
  for (size_t i = 0; i < a.recs.size(); ++i) {
    bool delta = i == a.recs.size() - 1;
    const Workload& raw = delta ? after : before.value();
    const auto& classes = delta ? classes_after : classes_before;
    Result<PricedAnswer> priced = PriceAnswer(backend, classes, a.recs[i]);
    if (!priced.ok()) {
      solo.violations.push_back(priced.status().ToString());
      return solo;
    }
    for (const std::string& v : CheckRecommendation(
             a.recs[i], raw, priced.value(), a.constraints[i], kInf)) {
      solo.violations.push_back(StrFormat("answer %zu: ", i) + v);
    }
    solo.quality.Add(a.recs[i], priced.value());
    if (compare_greedy) {
      Result<double> greedy_priced = PriceGreedyAnswer(
          greedy, backend, classes, a.candidates[i], a.constraints[i]);
      if (greedy_priced.ok()) {
        solo.quality.AddGreedy(priced.value().recommended_cost,
                               greedy_priced.value());
      }
    }
    if (i == 2 || i == 3) {  // the constraint edits
      Designer fresh_designer(backend);
      DesignSession fresh(fresh_designer);
      fresh.SetWorkload(raw);
      Status s = fresh.SetConstraints(a.constraints[i]);
      Result<IndexRecommendation> want =
          s.ok() ? fresh.Recommend() : Result<IndexRecommendation>(s);
      if (!want.ok()) {
        solo.violations.push_back(want.status().ToString());
        return solo;
      }
      for (const std::string& v :
           CheckSameCost(a.recs[i], want.value(), "refine vs fresh session")) {
        solo.violations.push_back(StrFormat("answer %zu: ", i) + v);
      }
      solo.ties += a.recs[i].indexes != want.value().indexes;
    }
  }
  Result<double> full =
      PriceClasses(backend, classes_after, DesignOf(a.recs.back().indexes));
  if (!full.ok()) {
    solo.violations.push_back(full.status().ToString());
    return solo;
  }
  for (const std::string& v : CheckSchedule(a.plan, a.recs.back().indexes,
                                            a.constraints.back(), kInf,
                                            full.value())) {
    solo.violations.push_back("plan: " + v);
  }
  return solo;
}

// ---------------------------------------------------------------------

// Declared so the server, which references the backends, goes first.
struct Fleet {
  std::vector<Substrate> subs;
  std::vector<std::unique_ptr<TimingBackend>> timing;
  std::unique_ptr<dbdesign::TuningServer> server;

  void Reset() {
    server.reset();
    timing.clear();
    subs.clear();
  }
};

Status BuildFleet(const TenantShape& shape,
                const dbdesign::TuningServerOptions& options, bool traced,
                Fleet& f) {
  f.Reset();
  for (int s = 0; s < shape.schemas; ++s) {
    f.subs.push_back(BuildSubstrate(shape.rows + shape.rows_step * s,
                                    kDatabaseSeed + static_cast<uint64_t>(s)));
  }
  f.server = std::make_unique<dbdesign::TuningServer>(options);
  for (int s = 0; s < shape.schemas; ++s) {
    dbdesign::DbmsBackend* backend = f.subs[static_cast<size_t>(s)].backend.get();
    if (traced) {
      f.timing.push_back(std::make_unique<TimingBackend>(*backend));
      backend = f.timing.back().get();
    }
    Status st = f.server->RegisterSchema("schema" + std::to_string(s), *backend);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

std::vector<PoolTrace> MakePool(const TenantShape& shape, uint64_t seed) {
  std::vector<PoolTrace> pool;
  for (int s = 0; s < shape.schemas; ++s) {
    for (int t = 0; t < shape.traces_per_schema; ++t) {
      Rng rng(SubSeed(seed, shape.stream,
                      static_cast<uint64_t>(s * shape.traces_per_schema + t)));
      SdssTrace trace = MakeSdssTrace(rng, shape.trace_queries,
                                      static_cast<int>(rng.UniformInt(6, 8)));
      PoolTrace p;
      p.schema = s;
      p.sql = std::move(trace.sql);
      p.batch = MakeSdssBatch(rng, trace.held_out, shape.batch_queries);
      pool.push_back(std::move(p));
    }
  }
  return pool;
}

// What one measured phase served.
struct Phase {
  OpSamples ops;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t tenants = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time the phase used
};

// State the client threads share.
struct Clients {
  Fleet* fleet;
  const std::vector<PoolTrace>* pool;
  const std::vector<Solo>* solos;
  bool traced = false;
  std::atomic<uint64_t> next_id{0};
  std::mutex mu;  ///< guards everything below and the phase being run
  Violations violations;
  LayerReport layers;
};

// One client: tenants back to back until `deadline_ms`, each running the
// storm or the wave script on the client's next pool trace. The clients
// walk the pool in turn, so every phase samples every trace.
void Client(Clients& c, int client, bool storm, double deadline_ms,
            Phase* phase) {
  Phase mine;
  Violations violations;
  const size_t n = c.pool->size();
  for (size_t j = 0; NowMs() < deadline_ms; ++j) {
    size_t t = (static_cast<size_t>(client) + kClients * j) % n;
    const PoolTrace& trace = (*c.pool)[t];
    std::string id = StrFormat("tenant%llu", static_cast<unsigned long long>(
                                                 c.next_id.fetch_add(1)));
    dbdesign::TuningServer& server = *c.fleet->server;
    ++mine.attempted;
    Status st = server.OpenSession(id, "schema" + std::to_string(trace.schema));
    if (!st.ok()) {
      ++mine.failed;
      violations.push_back("open: " + st.ToString());
      continue;
    }
    ScriptHooks hooks;
    hooks.with = [&](const std::function<void(DesignSession&)>& fn) {
      return server.WithSession(id, fn);
    };
    hooks.ops = &mine.ops;
    hooks.storm = storm;
    hooks.layers = c.traced ? &c.layers : nullptr;
    hooks.layers_mu = &c.mu;
    TenantScript script(
        trace, c.fleet->subs[static_cast<size_t>(trace.schema)].backend->catalog(),
        hooks);
    if (!script.Run(&mine.attempted, &mine.failed)) {
      violations.push_back(id + ": " + script.failure().ToString());
    } else {
      const TenantAnswers& got = script.answers();
      const TenantAnswers& want = (*c.solos)[t].answers;
      for (const std::string& v :
           CheckSameAsSolo(got.recs, storm ? &got.plan : nullptr, want.recs,
                           want.plan)) {
        violations.push_back(id + ": " + v);
      }
    }
    ++mine.attempted;
    st = server.CloseSession(id);
    if (!st.ok()) {
      ++mine.failed;
      violations.push_back("close: " + st.ToString());
    }
    ++mine.tenants;
  }
  std::lock_guard<std::mutex> lock(c.mu);
  phase->ops.Append(mine.ops);
  phase->attempted += mine.attempted;
  phase->failed += mine.failed;
  phase->tenants += mine.tenants;
  for (std::string& v : violations) {
    if (c.violations.size() < 20) c.violations.push_back(std::move(v));
  }
}

Phase RunPhase(Clients& c, bool storm, double seconds) {
  Phase phase;
  Usage u0 = ReadUsage();
  double t0 = NowMs();
  double deadline = t0 + seconds * 1000.0;
  std::vector<std::thread> threads;
  for (int k = 0; k < kClients; ++k) {
    threads.emplace_back([&, k] { Client(c, k, storm, deadline, &phase); });
  }
  for (std::thread& t : threads) t.join();
  phase.cpu_s = (ReadUsage() - u0).cpu_s;
  phase.wall_s = (NowMs() - t0) / 1000.0;
  return phase;
}

RunResult RunTenants(const TenantShape& shape, const RunOptions& options) {
  dbdesign::SetLogLevel(dbdesign::LogLevel::kError);
  RunResult result;
  std::vector<PoolTrace> pool = MakePool(shape, options.seed);

  // Solo references (before any server exists), four at a time. They
  // also size the churn workload's working set.
  std::vector<Solo> solos(pool.size());
  {
    std::vector<Substrate> subs;
    for (int s = 0; s < shape.schemas; ++s) {
      subs.push_back(BuildSubstrate(shape.rows + shape.rows_step * s,
                                    kDatabaseSeed + static_cast<uint64_t>(s)));
    }
    std::vector<std::thread> threads;
    for (int k = 0; k < kClients; ++k) {
      threads.emplace_back([&, k] {
        for (size_t t = static_cast<size_t>(k); t < pool.size(); t += kClients) {
          solos[t] = RunSolo(pool[t], subs[static_cast<size_t>(pool[t].schema)],
                             options.trace);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  size_t working_set = 0;
  AnswerQuality quality;
  int ties = 0;
  for (size_t t = 0; t < solos.size(); ++t) {
    result.Check(solos[t].violations, StrFormat("solo trace %zu", t));
    working_set += solos[t].working_set_bytes;
    quality.Merge(solos[t].quality);
    ties += solos[t].ties;
  }

  dbdesign::TuningServerOptions server_options;
  std::string spill_dir;
  if (shape.bounded) {
    server_options.cache_budget.atom_store_bytes =
        static_cast<size_t>(kChurnBudgetShare * static_cast<double>(working_set));
    spill_dir = (std::filesystem::path(options.scratch_dir) /
                 StrFormat("spill-%d", static_cast<int>(getpid())))
                    .string();
    std::filesystem::remove_all(spill_dir);
    std::filesystem::create_directories(spill_dir);
    server_options.spill_dir = spill_dir;
  }

  // Set-up: databases, ANALYZE, backends and server registration, three
  // times; the last one is kept.
  std::vector<double> setups;
  Fleet fleet;
  for (int i = 0; i < 3; ++i) {
    double t0 = NowMs();
    Status st = BuildFleet(shape, server_options, options.trace,
                           fleet);
    setups.push_back((NowMs() - t0) / 1000.0);
    if (!st.ok()) {
      result.Check({st.ToString()}, "set-up");
      return result;
    }
  }

  Clients clients;
  clients.fleet = &fleet;
  clients.pool = &pool;
  clients.solos = &solos;
  clients.traced = options.trace;
  // Warm-up: every pool trace once (the cold wave), not recorded.
  {
    double warm_t0 = NowMs();
    std::vector<std::thread> threads;
    std::atomic<size_t> next{0};
    for (int k = 0; k < kClients; ++k) {
      threads.emplace_back([&] {
        for (size_t t = next.fetch_add(1); t < pool.size(); t = next.fetch_add(1)) {
          std::string id = StrFormat("warm%zu", t);
          Status st = fleet.server->OpenSession(
              id, "schema" + std::to_string(pool[t].schema));
          if (!st.ok()) {
            std::lock_guard<std::mutex> lock(clients.mu);
            clients.violations.push_back("warm-up open: " + st.ToString());
            continue;
          }
          ScriptHooks hooks;
          hooks.with = [&](const std::function<void(DesignSession&)>& fn) {
            return fleet.server->WithSession(id, fn);
          };
          TenantScript script(pool[t],
                              fleet.subs[static_cast<size_t>(pool[t].schema)]
                                  .backend->catalog(),
                              hooks);
          uint64_t attempted = 0;
          uint64_t failed = 0;
          if (!script.Run(&attempted, &failed)) {
            std::lock_guard<std::mutex> lock(clients.mu);
            clients.violations.push_back("warm-up: " + script.failure().ToString());
          }
          (void)fleet.server->CloseSession(id);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    result.Note(StrFormat("cold wave: %zu tenants in %.1f ms", pool.size(),
                          NowMs() - warm_t0));
  }

  dbdesign::TuningServerStats s0 = fleet.server->stats();
  uint64_t calls0 = 0;
  for (const Substrate& sub : fleet.subs) calls0 += sub.backend->num_optimizer_calls();
  RssSampler rss;
  rss.Resume();
  Usage u0 = ReadUsage();
  double t0 = NowMs();
  Phase storm = RunPhase(clients, /*storm=*/true, options.seconds / 2);
  Phase wave = RunPhase(clients, /*storm=*/false, options.seconds / 2);
  double wall_s = (NowMs() - t0) / 1000.0;
  Usage u1 = ReadUsage();
  rss.Pause();
  dbdesign::TuningServerStats s1 = fleet.server->stats();

  result.attempted = storm.attempted + wave.attempted;
  result.failed = storm.failed + wave.failed;
  result.Check(clients.violations, "tenants");
  // Loads and new tenants come from the wave, the edits and plans from
  // the storm: each phase's own operations.
  OpSamples ops;
  ops.trace_load = wave.ops.trace_load;
  ops.recommend_cold = wave.ops.recommend_cold;
  ops.refine = storm.ops.refine;
  ops.workload_delta = storm.ops.workload_delta;
  ops.plan = storm.ops.plan;
  double tenants = static_cast<double>(storm.tenants + wave.tenants);
  result.Note(StrFormat("%d schemas x %d traces of %d+%d queries, %d clients; "
                        "refine storm %llu tenants in %.3f s, new-tenant wave "
                        "%llu tenants in %.3f s",
                        shape.schemas, shape.traces_per_schema,
                        shape.trace_queries, shape.batch_queries, kClients,
                        static_cast<unsigned long long>(storm.tenants),
                        storm.wall_s,
                        static_cast<unsigned long long>(wave.tenants),
                        wave.wall_s));
  result.Note(StrFormat("atom store: working set %zu bytes, budget %s, peak hot "
                        "%zu bytes",
                        working_set,
                        shape.bounded ? StrFormat("%zu bytes", server_options
                                                                   .cache_budget
                                                                   .atom_store_bytes)
                                            .c_str()
                                      : "unbounded",
                        s1.atom_peak_hot_bytes));
  result.Note("solo answers: " + quality.Describe());
  result.Note(StrFormat("solo refines choosing another index set than a fresh "
                        "session at the same cost: %d",
                        ties));
  if (shape.bounded &&
      s1.atom_peak_hot_bytes > server_options.cache_budget.atom_store_bytes) {
    result.Check({StrFormat("peak hot bytes %zu exceed the budget %zu",
                            s1.atom_peak_hot_bytes,
                            server_options.cache_budget.atom_store_bytes)},
                 "atom store");
  }

  if (!options.trace) {
    double requests = static_cast<double>(wave.attempted - wave.failed);
    ReportEndToEnd(ops, Median(setups), requests / wave.cpu_s, rss.PeakMb(),
                   quality, &result);
    result.Note(StrFormat("new-tenant wave: %.0f requests in %.3f s, %.3f "
                          "CPU s (%.0f req/s)",
                          requests, wave.wall_s, wave.cpu_s,
                          requests / wave.wall_s));
  } else {
    LayerReport& l = clients.layers;
    const dbdesign::AtomStoreStats& a0 = s0.atoms;
    const dbdesign::AtomStoreStats& a1 = s1.atoms;
    auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
    l.Set("server.atom_store.lookups", d(a0.lookups, a1.lookups));
    l.Set("server.atom_store.hits", d(a0.hits, a1.hits));
    l.Set("server.atom_store.misses", d(a0.misses, a1.misses));
    l.Set("server.atom_store.publishes", d(a0.publishes, a1.publishes));
    l.Set("server.atom_store.repopulates", d(a0.repopulates, a1.repopulates));
    l.Set("server.atom_store.races_discarded",
          d(a0.races_discarded, a1.races_discarded));
    double lookups = d(a0.lookups, a1.lookups);
    l.Set("server.atom_store.hit_rate",
          lookups > 0 ? d(a0.hits, a1.hits) / lookups : 0.0);
    l.Set("server.atom_store.evictions", d(a0.evictions, a1.evictions));
    l.Set("server.atom_store.spills", d(a0.spills, a1.spills));
    l.Set("server.atom_store.reloads", d(a0.reloads, a1.reloads));
    l.Set("server.atom_store.reload_failures",
          d(a0.reload_failures, a1.reload_failures));
    l.Set("server.atom_store.peak_hot_bytes",
          static_cast<double>(s1.atom_peak_hot_bytes));
    l.Set("server.coalescer.calls", d(s0.coalescer.calls, s1.coalescer.calls));
    l.Set("server.coalescer.round_trips",
          d(s0.coalescer.round_trips, s1.coalescer.round_trips));
    l.Set("server.coalescer.trips_saved",
          d(s0.coalescer.trips_saved(), s1.coalescer.trips_saved()));
    uint64_t calls1 = 0;
    for (const Substrate& sub : fleet.subs) calls1 += sub.backend->num_optimizer_calls();
    l.Set("backend.optimizer_calls", d(calls0, calls1));
    double batches = 0.0;
    double backend_ms = 0.0;
    for (const auto& t : fleet.timing) {
      batches += static_cast<double>(t->batches());
      backend_ms += t->busy_ms();
    }
    l.Set("backend.cost_batches", batches);
    l.Set("backend.ms", backend_ms);
    double classes = l.Get("workload.template_classes");
    l.Set("workload.compression_factor",
          classes > 0 ? l.Get("trace.raw_queries") / classes : 0.0);
    ReportProcess(u1 - u0, wall_s, &l);
    ReportQuality(quality, &l);
    l.Set("trace.sessions", tenants);
    double op_ms = l.Get("trace.op_ms");
    double spans = l.Get("sql.parse_bind_ms") + l.Get("workload.compress_ms") +
                   l.Get("server.lock_wait_ms") + l.Get("solver.solve_ms") +
                   backend_ms;
    l.Set("trace.coverage", op_ms > 0 ? spans / op_ms : 0.0);
    l.Emit(tenants, &result);
  }
  result.Note("new tenants     " + ops.recommend_cold.Describe());

  fleet.Reset();
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
  return result;
}

}  // namespace

RunResult RunTenantFleet(const RunOptions& options) {
  return RunTenants(kFleet, options);
}

RunResult RunTenantChurn(const RunOptions& options) {
  return RunTenants(kChurn, options);
}

}  // namespace perfbench
