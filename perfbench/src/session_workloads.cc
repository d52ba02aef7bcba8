// The single-client workloads: one DBA tunes a series of fresh
// DesignSessions, one after another (a closed loop).
//
//   dba_loop        SDSS template traces and the full interactive
//                   script: cold Recommend, pin / veto / budget / cap /
//                   un-veto edits, a new-template AddQueries, deployment
//                   planning and a replan after one more veto.
//   wide_templates  ad-hoc SQL over all five tables that compresses into
//                   several times more template classes, with a cold
//                   Recommend (no storage budget), a veto, an
//                   AddQueries of more instances of the same templates
//                   and deployment planning.
//
// Traced runs replay every step a second time through the layers' own
// public entry points (Composer below) and require the composed answer
// to equal the session's.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <type_traits>

#include "backend/inmemory_backend.h"
#include "bench.h"
#include "cophy/cophy.h"
#include "core/session.h"
#include "inputs.h"
#include "script.h"
#include "interaction/doi.h"
#include "interaction/schedule.h"
#include "sql/binder.h"
#include "storage/database.h"
#include "timing_backend.h"
#include "util/logging.h"
#include "util/str.h"
#include "workload/compress.h"
#include "workload/sdss.h"

namespace perfbench {
namespace {

using dbdesign::BoundQuery;
using dbdesign::CandidateIndex;
using dbdesign::ConstraintDelta;
using dbdesign::Database;
using dbdesign::DbmsBackend;
using dbdesign::DeploymentPlan;
using dbdesign::Designer;
using dbdesign::DesignerOptions;
using dbdesign::DesignConstraints;
using dbdesign::DesignSession;
using dbdesign::IndexDef;
using dbdesign::IndexRecommendation;
using dbdesign::InMemoryBackend;
using dbdesign::Result;
using dbdesign::Rng;
using dbdesign::Status;
using dbdesign::StrFormat;
using dbdesign::Workload;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------
// Workload shapes

struct Shape {
  bool dba_script = true;  ///< full DBA script (else the wide script)
  int rows = 0;            ///< photoobj rows of the substrate
  int trace_queries = 0;
  int batch_queries = 0;
  /// Storage budget as a share of the database's heap pages (0: none).
  double budget_lo = 0.0;
  double budget_hi = 0.0;
};

constexpr Shape kDbaLoop = {true, 5000, 200, 20, 0.08, 0.16};
constexpr Shape kWide = {false, 3000, 36, 6, 0.0, 0.0};

struct SessionInputs {
  std::vector<std::string> trace;
  std::vector<std::string> batch;  ///< AddQueries batch (new templates)
  double budget_pages = kInf;
};

SessionInputs MakeInputs(const Shape& shape, uint64_t seed, uint64_t index,
                         double data_pages) {
  Rng rng(SubSeed(seed, shape.dba_script ? 1 : 2, index));
  SessionInputs in;
  if (shape.dba_script) {
    SdssTrace trace = MakeSdssTrace(
        rng, shape.trace_queries, static_cast<int>(rng.UniformInt(6, 8)));
    in.trace = std::move(trace.sql);
    in.batch = MakeSdssBatch(rng, trace.held_out, shape.batch_queries);
  } else {
    WideTrace trace =
        MakeWideTrace(rng, shape.trace_queries, shape.batch_queries);
    in.trace = std::move(trace.sql);
    in.batch = std::move(trace.batch);
  }
  if (shape.budget_hi > 0) {
    in.budget_pages =
        data_pages * rng.UniformDouble(shape.budget_lo, shape.budget_hi);
  }
  return in;
}

// ---------------------------------------------------------------------
// What a session answered, kept for checking after the timed phase.

struct Step {
  enum class Kind { kAnswer, kRefine, kPlan };
  Kind kind = Kind::kAnswer;
  bool after_delta = false;  ///< the workload includes the AddQueries batch
  DesignConstraints constraints;
  IndexRecommendation rec;   ///< kAnswer / kRefine
  /// The session's candidate universe for `rec` (kAnswer / kRefine;
  /// traced runs, which compare the answer with the greedy advisor's).
  std::vector<CandidateIndex> candidates;
  DeploymentPlan plan;       ///< kPlan
};

struct SessionRecord {
  uint64_t index = 0;
  std::vector<Step> steps;
};

// ---------------------------------------------------------------------
// Composer: the same steps, one layer call at a time, timed per layer.

class Composer {
 public:
  Composer(DbmsBackend& backend, const DesignerOptions& options,
           LayerReport* layers)
      : backend_(&backend),
        options_(options),
        advisor_(backend, options.cophy),
        layers_(layers) {}

  double wall_ms() const { return wall_ms_; }
  double span_ms() const { return span_ms_; }

  Status Load(const std::vector<std::string>& sql) {
    Start();
    Status s = BindAndCompress(sql);
    Stop();
    return s;
  }

  Result<IndexRecommendation> Recommend() {
    Start();
    Status s = Status::OK();
    if (prepared_.empty()) {
      std::vector<CandidateIndex> universe = Span(
          "cophy.candidates_ms", [&] {
            std::vector<CandidateIndex> c = dbdesign::GenerateCandidates(
                *backend_, classes_, options_.cophy.candidates);
            dbdesign::MergePinnedCandidates(*backend_, constraints_, &c);
            return c;
          });
      s = Prepare(std::move(universe));
    }
    Result<IndexRecommendation> rec =
        s.ok() ? Solve() : Result<IndexRecommendation>(s);
    Stop();
    return rec;
  }

  Result<IndexRecommendation> Refine(const ConstraintDelta& delta) {
    Start();
    Status s = dbdesign::ApplyConstraintDelta(delta, backend_->catalog(),
                                              &constraints_);
    Result<IndexRecommendation> rec =
        s.ok() ? Solve() : Result<IndexRecommendation>(s);
    Stop();
    return rec;
  }

  Status SetConstraints(const DesignConstraints& c) {
    constraints_ = c;
    return Status::OK();
  }

  Result<IndexRecommendation> AddAndRecommend(
      const std::vector<std::string>& sql) {
    Start();
    size_t old_classes = classes_.size();
    Status s = BindAndCompress(sql);
    if (s.ok()) {
      // Mine the new classes only and extend the universe, as the
      // session does; the atoms then rebuild over the extended universe.
      Workload added;
      for (size_t c = old_classes; c < classes_.size(); ++c) {
        added.Add(classes_.queries[c], classes_.WeightOf(c));
      }
      std::vector<CandidateIndex> universe = prepared_.candidates;
      Span("cophy.candidates_ms", [&] {
        for (const CandidateIndex& c : dbdesign::GenerateCandidates(
                 *backend_, added, options_.cophy.candidates)) {
          bool present = false;
          for (const CandidateIndex& have : universe) {
            present |= have.index == c.index;
          }
          if (!present) universe.push_back(c);
        }
        return 0;
      });
      s = Prepare(std::move(universe));
    }
    Result<IndexRecommendation> rec =
        s.ok() ? Solve() : Result<IndexRecommendation>(s);
    Stop();
    return rec;
  }

  Result<dbdesign::MaterializationSchedule> Plan(
      const std::vector<IndexDef>& indexes) {
    Start();
    Result<dbdesign::MaterializationSchedule> out = PlanSpans(indexes);
    Stop();
    return out;
  }

 private:
  void Start() { t0_ = NowMs(); }
  void Stop() { wall_ms_ += NowMs() - t0_; }

  // Times fn() as one span of layer `name`.
  template <typename Fn>
  std::invoke_result_t<Fn&> Span(const char* name, Fn&& fn) {
    double t0 = NowMs();
    auto out = fn();
    double ms = NowMs() - t0;
    layers_->Add(name, ms);
    span_ms_ += ms;
    return out;
  }

  Result<dbdesign::MaterializationSchedule> PlanSpans(
      const std::vector<IndexDef>& indexes) {
    dbdesign::InteractionAnalyzer analyzer(advisor_.inum(), options_.doi);
    try {
      dbdesign::DoiMatrix matrix = Span("interaction.doi_ms", [&] {
        return analyzer.AnalyzeMatrix(classes_, indexes);
      });
      layers_->Add("interaction.doi_pairs",
                   static_cast<double>(matrix.doi.size()));
      dbdesign::MaterializationScheduler scheduler(advisor_.inum());
      return Span("interaction.schedule_ms", [&] {
        return scheduler.Greedy(classes_, indexes, constraints_);
      });
    } catch (const dbdesign::StatusException& e) {
      return e.status();
    }
  }

  Status BindAndCompress(const std::vector<std::string>& sql) {
    Result<Workload> bound = Span("sql.parse_bind_ms", [&] {
      return Bind(backend_->catalog(), sql);
    });
    if (!bound.ok()) return bound.status();
    for (size_t i = 0; i < bound.value().size(); ++i) {
      raw_.Add(bound.value().queries[i]);
    }
    dbdesign::CompressionReport report;
    classes_ = Span("workload.compress_ms", [&] {
      return dbdesign::CompressWorkload(raw_, &report);
    });
    return Status::OK();
  }

  Status Prepare(std::vector<CandidateIndex> universe) {
    layers_->Add("cophy.candidates", static_cast<double>(universe.size()));
    try {
      Span("inum.populate_ms", [&] {
        advisor_.inum().PrepareQueries(std::span<const BoundQuery>(
            classes_.queries.data(), classes_.queries.size()));
        return 0;
      });
    } catch (const dbdesign::StatusException& e) {
      return e.status();
    }
    Result<dbdesign::CoPhyPrepared> prepared = Span("cophy.atom_build_ms", [&] {
      return advisor_.TryPrepare(classes_, std::move(universe));
    });
    if (!prepared.ok()) return prepared.status();
    prepared_ = std::move(prepared).value();
    layers_->Add("cophy.atoms", static_cast<double>(prepared_.num_atoms));
    cache_.Clear();
    return Status::OK();
  }

  Result<IndexRecommendation> Solve() {
    Result<IndexRecommendation> rec = Span("solver.solve_ms", [&] {
      return advisor_.SolvePrepared(prepared_, constraints_, &cache_);
    });
    if (rec.ok()) {
      const IndexRecommendation& r = rec.value();
      layers_->Add("solver.lp_pivots", r.lp_pivots);
      layers_->Add("solver.bnb_nodes", r.bnb_nodes);
      layers_->Add("solver.clusters_solved", r.clusters_solved);
      layers_->Add("solver.clusters_reused", r.clusters_reused);
      layers_->Add("solver.monolithic_fallbacks", r.solved_monolithic ? 1 : 0);
    }
    return rec;
  }

  DbmsBackend* backend_;
  DesignerOptions options_;
  dbdesign::CoPhyAdvisor advisor_;
  LayerReport* layers_;
  Workload raw_;
  Workload classes_;
  DesignConstraints constraints_;
  dbdesign::CoPhyPrepared prepared_;
  dbdesign::CoPhySolverCache cache_;
  double t0_ = 0.0;
  double wall_ms_ = 0.0;
  double span_ms_ = 0.0;
};

// ---------------------------------------------------------------------
// One session of the script.

struct SessionContext {
  const Shape* shape;
  uint64_t seed;
  Substrate* substrate;
  DbmsBackend* session_backend;  ///< TimingBackend in traced runs
  LayerReport* layers;           ///< null in untraced runs
};

class SessionRun {
 public:
  SessionRun(const SessionContext& ctx, uint64_t index, OpSamples* ops,
             RunResult* result)
      : ctx_(ctx),
        designer_(*ctx.session_backend),
        session_(designer_),
        ops_(ops),
        result_(result) {
    record_.index = index;
    if (ctx.layers != nullptr) {
      composer_ = std::make_unique<Composer>(*ctx.substrate->backend,
                                             designer_.options(), ctx.layers);
    }
  }

  // Runs the script until it ends or an operation fails (counted in the
  // result where it fails). A session adds one sample per operation
  // type: the mean of its refines and of its plans, so the run's median
  // compares like with like whatever share of edits the certificate
  // answers.
  void Run() {
    Script();
    if (refines_.size() > 0) ops_->refine.Add(refines_.Sum() / refines_.size());
    if (plans_.size() > 0) ops_->plan.Add(plans_.Sum() / plans_.size());
  }

  SessionRecord TakeRecord() { return std::move(record_); }
  double session_ms() const { return session_ms_; }
  const Composer* composer() const { return composer_.get(); }

 private:
  bool Script() {
    SessionInputs in = MakeInputs(*ctx_.shape, ctx_.seed, record_.index,
                                  ctx_.substrate->data_pages);
    if (!Load(in.trace)) return false;
    DesignConstraints budget;
    budget.storage_budget_pages = in.budget_pages;
    ++result_->attempted;
    if (!Ok(session_.SetConstraints(budget))) return false;
    if (composer_) composer_->SetConstraints(budget);
    if (!Answer(&ops_->recommend_cold, [&] { return session_.Recommend(); },
                [&] { return composer_->Recommend(); }, Step::Kind::kAnswer)) {
      return false;
    }
    if (ctx_.shape->dba_script) {
      if (!Refine(PinTwo(Last()))) return false;
      ConstraintDelta veto = VetoUsed(Last(), session_.constraints());
      if (!Refine(veto)) return false;
      if (!Refine(CutBudget(Last(), session_.constraints(), *ctx_.substrate->backend))) {
        return false;
      }
      if (!Refine(CapTable(Last(), session_.constraints()))) return false;
      ConstraintDelta unveto;
      unveto.unveto = veto.veto;
      if (!Refine(unveto)) return false;
    } else {
      if (!Refine(VetoUsed(Last(), session_.constraints()))) return false;
    }
    if (!AddQueries(in.batch)) return false;
    if (!Plan()) return false;
    if (ctx_.shape->dba_script) {
      if (!Refine(VetoUsed(Last(), session_.constraints()))) return false;
      if (!Plan()) return false;
    }
    return true;
  }

  // A failed session operation: counted as failed at the point of
  // failure, and the script stops.
  bool Ok(const dbdesign::Status& s) {
    if (s.ok()) return true;
    ++result_->failed;
    result_->Note("operation failed: " + s.ToString());
    return false;
  }

  // The traced replay failed where the session did not: the layer split
  // no longer describes the session's work.
  bool Traced(const dbdesign::Status& s) {
    if (s.ok()) return true;
    result_->Check({"composed path failed: " + s.ToString()},
                   StrFormat("session %llu", Id()));
    return false;
  }

  const IndexRecommendation& Last() const {
    for (auto it = record_.steps.rbegin(); it != record_.steps.rend(); ++it) {
      if (it->kind != Step::Kind::kPlan) return it->rec;
    }
    return record_.steps.front().rec;
  }

  // Times one session call; adds it to `samples`.
  template <typename Fn>
  auto Timed(Samples* samples, Fn&& fn) {
    ++result_->attempted;
    uint64_t calls = ctx_.substrate->backend->num_optimizer_calls();
    double t0 = NowMs();
    auto out = fn();
    double ms = NowMs() - t0;
    samples->Add(ms);
    session_ms_ += ms;
    if (composer_) {
      Layers().Add("backend.optimizer_calls",
                   static_cast<double>(
                       ctx_.substrate->backend->num_optimizer_calls() - calls));
    }
    return out;
  }

  bool Load(const std::vector<std::string>& sql) {
    dbdesign::Status s = Timed(&ops_->trace_load, [&] {
      Result<Workload> w = Bind(designer_.backend().catalog(), sql);
      if (!w.ok()) return w.status();
      session_.SetWorkload(std::move(w).value());
      return dbdesign::Status::OK();
    });
    if (!Ok(s)) return false;
    if (composer_) {
      if (!Traced(composer_->Load(sql))) return false;
      Layers().Add("workload.template_classes",
                   static_cast<double>(session_.num_template_classes()));
      Layers().Add("trace.raw_queries", static_cast<double>(sql.size()));
    }
    return true;
  }

  template <typename SessionFn, typename ComposeFn>
  bool Answer(Samples* samples, SessionFn&& session_fn, ComposeFn&& compose_fn,
              Step::Kind kind) {
    Result<IndexRecommendation> rec = Timed(samples, session_fn);
    if (!Ok(rec.status())) return false;
    Step step;
    step.kind = kind;
    step.after_delta = after_delta_;
    step.constraints = session_.constraints();
    step.rec = std::move(rec).value();
    if (composer_) {
      step.candidates = session_.prepared_state().candidates;
      Result<IndexRecommendation> composed = compose_fn();
      if (!Traced(composed.status())) return false;
      Compare(composed.value(), step.rec, "composed answer vs session");
    }
    record_.steps.push_back(std::move(step));
    return true;
  }

  bool Refine(const ConstraintDelta& delta) {
    bool ok = Answer(&refines_, [&] { return session_.Refine(delta); },
                     [&] { return composer_->Refine(delta); },
                     Step::Kind::kRefine);
    if (ok && composer_) {
      const IndexRecommendation& r = record_.steps.back().rec;
      Layers().Add("session.refines", 1);
      if (CertificateReuse(r)) {
        Layers().Add("session.certificate_reuses", 1);
      }
    }
    return ok;
  }

  bool AddQueries(const std::vector<std::string>& sql) {
    Result<IndexRecommendation> rec = Timed(&ops_->workload_delta, [&] {
      Result<Workload> w = Bind(designer_.backend().catalog(), sql);
      if (!w.ok()) return Result<IndexRecommendation>(w.status());
      session_.AddQueries(w.value().queries);
      return session_.Recommend();
    });
    if (!Ok(rec.status())) return false;
    after_delta_ = true;
    Step step;
    step.kind = Step::Kind::kAnswer;
    step.after_delta = true;
    step.constraints = session_.constraints();
    step.rec = std::move(rec).value();
    if (composer_) {
      step.candidates = session_.prepared_state().candidates;
      Result<IndexRecommendation> composed = composer_->AddAndRecommend(sql);
      if (!Traced(composed.status())) return false;
      Compare(composed.value(), step.rec, "composed answer after AddQueries");
    }
    record_.steps.push_back(std::move(step));
    return true;
  }

  bool Plan() {
    std::vector<IndexDef> indexes = Last().indexes;
    Result<DeploymentPlan> plan =
        Timed(&plans_, [&] { return session_.PlanDeployment(); });
    if (!Ok(plan.status())) return false;
    Step step;
    step.kind = Step::Kind::kPlan;
    step.after_delta = after_delta_;
    step.constraints = session_.constraints();
    step.rec = Last();
    step.plan = std::move(plan).value();
    if (composer_) {
      const DeploymentPlan& p = step.plan;
      Layers().Add("interaction.doi_rows_computed",
                   static_cast<double>(p.doi_rows_computed));
      Layers().Add("interaction.doi_rows_reused",
                   static_cast<double>(p.doi_rows_reused));
      Layers().Add("interaction.schedules_reused", p.schedule_reused ? 1 : 0);
      auto composed = composer_->Plan(indexes);
      if (!Traced(composed.status())) return false;
      DeploymentPlan as_plan;
      as_plan.schedule = std::move(composed).value();
      result_->Check(CheckSamePlan(as_plan, p, "composed schedule vs session"),
                     StrFormat("session %llu", Id()));
    }
    record_.steps.push_back(std::move(step));
    return true;
  }

  // The composed answer must be as good as the session's; where the
  // problem has several optima the two may pick different index sets.
  void Compare(const IndexRecommendation& composed,
               const IndexRecommendation& session, const char* what) {
    result_->Check(CheckSameCost(composed, session, what),
                   StrFormat("session %llu", Id()));
    if (composed.indexes != session.indexes) Layers().Add("trace.ties", 1);
  }

  LayerReport& Layers() { return *ctx_.layers; }
  unsigned long long Id() const {
    return static_cast<unsigned long long>(record_.index);
  }

  const SessionContext& ctx_;
  Designer designer_;
  DesignSession session_;
  OpSamples* ops_;
  RunResult* result_;
  std::unique_ptr<Composer> composer_;
  SessionRecord record_;
  bool after_delta_ = false;
  double session_ms_ = 0.0;
  Samples refines_;
  Samples plans_;
};

// ---------------------------------------------------------------------
// Checking, after the timed phase.

// What checking one session found.
struct SessionCheck {
  Violations violations;
  AnswerQuality quality;
  /// Refines whose index set differs from the fresh session's at the
  /// same cost.
  int ties = 0;
};

// `compare_greedy` also solves each answer's problem with the greedy
// advisor (traced runs: it costs more than the rest of the checks).
SessionCheck CheckSession(const Shape& shape, uint64_t seed, Substrate& sub,
                          const SessionRecord& record, bool compare_greedy) {
  SessionCheck out;
  DbmsBackend& backend = *sub.backend;
  auto stop = [&](const std::string& msg) {
    out.violations.push_back(msg);
    return out;
  };
  SessionInputs in = MakeInputs(shape, seed, record.index, sub.data_pages);
  Result<Workload> before = Bind(backend.catalog(), in.trace);
  Result<Workload> batch = Bind(backend.catalog(), in.batch);
  if (!before.ok() || !batch.ok()) return stop("inputs do not bind");
  Workload after = before.value();
  for (const BoundQuery& q : batch.value().queries) after.Add(q);
  const Workload* raw[2] = {&before.value(), &after};
  std::vector<dbdesign::TemplateClass> classes[2];
  for (int k = 0; k < 2; ++k) {
    dbdesign::TemplateClassTable table;
    for (size_t i = 0; i < raw[k]->size(); ++i) {
      table.AddInstance(raw[k]->queries[i], raw[k]->WeightOf(i));
    }
    classes[k] = table.classes();
  }
  auto fail = [&](const Violations& v, const std::string& what) {
    for (const std::string& m : v) out.violations.push_back(what + ": " + m);
  };
  dbdesign::GreedyAdvisor greedy(backend);
  for (size_t i = 0; i < record.steps.size(); ++i) {
    const Step& step = record.steps[i];
    int k = step.after_delta ? 1 : 0;
    std::string what = StrFormat("step %zu", i);
    if (step.kind == Step::Kind::kPlan) {
      Result<double> full =
          PriceClasses(backend, classes[k], DesignOf(step.rec.indexes));
      if (!full.ok()) return stop(full.status().ToString());
      fail(CheckSchedule(step.plan, step.rec.indexes, step.constraints, kInf,
                         full.value()),
           what);
      continue;
    }
    Result<PricedAnswer> priced = PriceAnswer(backend, classes[k], step.rec);
    if (!priced.ok()) return stop(priced.status().ToString());
    fail(CheckRecommendation(step.rec, *raw[k], priced.value(),
                             step.constraints, kInf),
         what);
    out.quality.Add(step.rec, priced.value());
    if (compare_greedy) {
      Result<double> greedy_priced = PriceGreedyAnswer(
          greedy, backend, classes[k], step.candidates, step.constraints);
      if (greedy_priced.ok()) {
        out.quality.AddGreedy(priced.value().recommended_cost,
                              greedy_priced.value());
      }
    }
    // A constraint edit must answer as well as a fresh session under the
    // same constraints. After an AddQueries the session's candidate
    // universe is its old one extended by the new classes' candidates,
    // which a fresh session does not reproduce, so the comparison stops
    // there.
    if (step.kind == Step::Kind::kRefine && !step.after_delta) {
      Designer designer(backend);
      DesignSession fresh(designer);
      fresh.SetWorkload(*raw[k]);
      dbdesign::Status s = fresh.SetConstraints(step.constraints);
      if (!s.ok()) return stop(s.ToString());
      Result<IndexRecommendation> want = fresh.Recommend();
      if (!want.ok()) return stop(want.status().ToString());
      fail(CheckSameCost(step.rec, want.value(), "refine vs fresh session"),
           what);
      out.ties += step.rec.indexes != want.value().indexes;
    }
  }
  return out;
}

// Checks every record on up to four threads, adding to `totals`.
void CheckBatch(const Shape& shape, uint64_t seed, Substrate& sub,
                const std::vector<SessionRecord>& records, bool compare_greedy,
                RunResult* result, SessionCheck* totals) {
  if (records.empty()) return;
  int threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()),
                           1, 4);
  std::vector<SessionCheck> found(records.size());
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < records.size();
           i += static_cast<size_t>(threads)) {
        found[i] = CheckSession(shape, seed, sub, records[i], compare_greedy);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (size_t i = 0; i < records.size(); ++i) {
    result->Check(found[i].violations,
                  StrFormat("session %llu",
                            static_cast<unsigned long long>(records[i].index)));
    totals->quality.Merge(found[i].quality);
    totals->ties += found[i].ties;
  }
}

/// Sessions checked together; the clock stops while they are checked,
/// and memory for answers stays bounded.
constexpr size_t kCheckBatch = 32;

RunResult RunSessions(const Shape& shape, const RunOptions& options) {
  dbdesign::SetLogLevel(dbdesign::LogLevel::kError);
  RunResult result;

  // Set-up: the database, ANALYZE and the backend, built five times.
  std::vector<double> setups;
  Substrate sub;
  for (int i = 0; i < 5; ++i) {
    double t0 = NowMs();
    sub = BuildSubstrate(shape.rows, kDatabaseSeed);
    setups.push_back((NowMs() - t0) / 1000.0);
  }

  TimingBackend timing(*sub.backend);
  LayerReport layers;
  SessionContext ctx{&shape, options.seed, &sub,
                     options.trace ? static_cast<DbmsBackend*>(&timing)
                                   : sub.backend.get(),
                     options.trace ? &layers : nullptr};

  OpSamples ops;
  std::vector<SessionRecord> batch;
  SessionCheck checked;
  size_t sessions_run = 0;
  double session_ms = 0.0;
  double composed_ms = 0.0;
  double span_ms = 0.0;
  // Only the sessions are measured: the clock, the process counters and
  // the resident-set sampler stop while a batch of answers is checked.
  Usage used;
  RssSampler rss;
  rss.Resume();
  double measured_ms = 0.0;
  for (uint64_t i = 0; measured_ms < options.seconds * 1000.0; ++i) {
    Usage u0 = ReadUsage();
    double t0 = NowMs();
    SessionRun run(ctx, i, &ops, &result);
    run.Run();
    measured_ms += NowMs() - t0;
    used += ReadUsage() - u0;
    session_ms += run.session_ms();
    if (run.composer() != nullptr) {
      composed_ms += run.composer()->wall_ms();
      span_ms += run.composer()->span_ms();
    }
    batch.push_back(run.TakeRecord());
    ++sessions_run;
    if (batch.size() == kCheckBatch) {
      rss.Pause();
      CheckBatch(shape, options.seed, sub, batch, options.trace, &result,
                 &checked);
      batch.clear();
      rss.Resume();
    }
  }
  rss.Pause();
  CheckBatch(shape, options.seed, sub, batch, options.trace, &result, &checked);
  double wall_s = measured_ms / 1000.0;
  result.Note(checked.quality.Describe());
  result.Note(StrFormat("%d refines chose another index set than a fresh "
                        "session at the same cost",
                        checked.ties));

  double sessions = static_cast<double>(sessions_run);
  result.Note(StrFormat("%zu sessions, %d-%d queries each, budget %.0f%%-%.0f%% "
                        "of %.0f heap pages (0%%: none)",
                        sessions_run, shape.trace_queries,
                        shape.trace_queries + shape.batch_queries,
                        shape.budget_lo * 100, shape.budget_hi * 100,
                        sub.data_pages));
  if (options.trace) {
    layers.Add("backend.cost_batches", static_cast<double>(timing.batches()));
    layers.Add("backend.ms", timing.busy_ms());
    double classes = layers.Get("workload.template_classes");
    layers.Set("workload.compression_factor",
               classes > 0 ? layers.Get("trace.raw_queries") / classes : 0.0);
    ReportProcess(used, wall_s, &layers);
    ReportQuality(checked.quality, &layers);
    layers.Set("trace.sessions", sessions);
    layers.Set("trace.coverage", composed_ms > 0 ? span_ms / composed_ms : 0.0);
    layers.Set("trace.overhead",
               session_ms > 0 ? composed_ms / session_ms - 1.0 : 0.0);
    result.Note(StrFormat("traced: session path %.1f ms, composed path %.1f ms, "
                          "layer spans %.1f ms; %.0f composed answers chose "
                          "another index set at the same cost",
                          session_ms, composed_ms, span_ms,
                          layers.Get("trace.ties")));
  }
  if (!options.trace) {
    double requests = static_cast<double>(result.attempted - result.failed);
    ReportEndToEnd(ops, Median(setups), requests / used.cpu_s, rss.PeakMb(),
                   checked.quality, &result);
    result.Note(StrFormat("requests        %.0f in %.3f s, %.3f CPU s "
                          "(%.0f req/s)",
                          requests, wall_s, used.cpu_s, requests / wall_s));
  }
  if (options.trace) layers.Emit(sessions, &result);
  return result;
}

}  // namespace

RunResult RunDbaLoop(const RunOptions& options) {
  return RunSessions(kDbaLoop, options);
}

RunResult RunWideTemplates(const RunOptions& options) {
  return RunSessions(kWide, options);
}

}  // namespace perfbench
