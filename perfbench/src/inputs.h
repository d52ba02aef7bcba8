// Seeded input generators for the end-to-end benchmark.
//
// The designer under test receives only what these functions produce:
// raw SQL text (parsed and bound by the designer's own SQL layer) and
// the numbers the workloads turn into constraint edits. The same seed
// always yields the same inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workload/queries.h"

namespace perfbench {

/// A raw SQL trace drawn from the ten SDSS template families.
struct SdssTrace {
  std::vector<std::string> sql;
  /// Families the trace draws from (by SdssTemplate value).
  std::vector<int> families;
  /// Families absent from the trace; AddQueries batches draw from these
  /// so they open new template classes.
  std::vector<int> held_out;
};

/// Draws a trace of `n` queries over a random subset of `families_in`
/// template families, each with a random weight in [1, 4).
SdssTrace MakeSdssTrace(dbdesign::Rng& rng, int n, int families_in);

/// `n` queries drawn uniformly from `families` (the new-template batch).
std::vector<std::string> MakeSdssBatch(dbdesign::Rng& rng,
                                       const std::vector<int>& families,
                                       int n);

/// A trace of ad-hoc queries over the five SDSS tables plus a later
/// batch of the same templates. Each template has a random join shape
/// (single table, two-way or three-way foreign-key join), a random
/// subset of predicate columns per table with a random operator shape,
/// and optional grouping and ordering, so traces compress into many
/// template classes instead of ten.
struct WideTrace {
  std::vector<std::string> sql;
  /// Fresh instances of templates already in `sql` (an append that only
  /// adds weight to existing template classes).
  std::vector<std::string> batch;
};

/// `n` ad-hoc queries, one generated template each, then `batch` more
/// instances (fresh constants) of templates drawn from those.
WideTrace MakeWideTrace(dbdesign::Rng& rng, int n, int batch);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
