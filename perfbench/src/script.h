// What every workload shares: the SDSS substrate a session tunes, SQL
// binding, and the DBA's constraint edits, each derived from the answer
// on screen so a script replays identically for identical answers.

#ifndef PERFBENCH_SCRIPT_H_
#define PERFBENCH_SCRIPT_H_

#include <memory>
#include <string>
#include <vector>

#include "backend/inmemory_backend.h"
#include "core/session.h"
#include "storage/database.h"

namespace perfbench {

/// The databases are fixed, like the survey they model: the seed varies
/// the workloads, never the data. Schema k uses this seed plus k.
inline constexpr uint64_t kDatabaseSeed = 42;

/// One SDSS database after ANALYZE, and the backend over it.
///
/// The backend's cost parameters run the designer on one thread
/// (CostParams::num_threads = 1); the concurrency the benchmark measures
/// is that of its clients. With the default pool every small
/// ParallelFor waits on workers the host may have descheduled: on a
/// 4-core VM with steal time, run medians of PlanDeployment (DoI rows)
/// spread 0.79 (dba_loop), 0.37 (wide_templates) and 0.19-0.35 (tenant
/// workloads) over ten runs, against 0.10 or less on one thread.
struct Substrate {
  std::unique_ptr<dbdesign::Database> db;
  std::unique_ptr<dbdesign::InMemoryBackend> backend;
  double data_pages = 0.0;  ///< heap pages over all tables
};

Substrate BuildSubstrate(int photoobj_rows, uint64_t seed);

/// Parses and binds every statement.
dbdesign::Result<dbdesign::Workload> Bind(const dbdesign::Catalog& catalog,
                                          const std::vector<std::string>& sql);

/// Pins up to two recommended indexes, always leaving one unpinned.
dbdesign::ConstraintDelta PinTwo(const dbdesign::IndexRecommendation& rec);

/// Vetoes the last recommended index that is not pinned.
dbdesign::ConstraintDelta VetoUsed(const dbdesign::IndexRecommendation& rec,
                                   const dbdesign::DesignConstraints& c);

/// Cuts the budget to three quarters of the answer's size, never below
/// what the pins need.
dbdesign::ConstraintDelta CutBudget(const dbdesign::IndexRecommendation& rec,
                                    const dbdesign::DesignConstraints& c,
                                    const dbdesign::DbmsBackend& backend);

/// Caps the table with the most recommended indexes one below its
/// count, never below its pins.
dbdesign::ConstraintDelta CapTable(const dbdesign::IndexRecommendation& rec,
                                   const dbdesign::DesignConstraints& c);

/// True when `rec` was answered from the optimality certificate, with
/// no solver run (the session then reports zero nodes and zero time).
inline bool CertificateReuse(const dbdesign::IndexRecommendation& rec) {
  return rec.solve_time_sec == 0.0 && rec.bnb_nodes == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SCRIPT_H_
