#include "script.h"

#include <algorithm>
#include <map>

#include "sql/binder.h"
#include "workload/sdss.h"

namespace perfbench {

using dbdesign::BoundQuery;
using dbdesign::ConstraintDelta;
using dbdesign::Database;
using dbdesign::DbmsBackend;
using dbdesign::DesignConstraints;
using dbdesign::IndexDef;
using dbdesign::IndexRecommendation;
using dbdesign::InMemoryBackend;
using dbdesign::Result;
using dbdesign::Workload;

Substrate BuildSubstrate(int rows, uint64_t seed) {
  dbdesign::SdssConfig cfg;
  cfg.photoobj_rows = rows;
  cfg.seed = seed;
  Substrate s;
  s.db = std::make_unique<Database>(dbdesign::BuildSdssDatabase(cfg));
  dbdesign::CostParams params;
  params.num_threads = 1;
  s.backend = std::make_unique<InMemoryBackend>(*s.db, params);
  for (dbdesign::TableId t = 0; t < s.db->catalog().num_tables(); ++t) {
    s.data_pages += s.db->stats(t).HeapPages(s.db->catalog().table(t));
  }
  return s;
}

Result<Workload> Bind(const dbdesign::Catalog& catalog,
                      const std::vector<std::string>& sql) {
  Workload w;
  for (const std::string& q : sql) {
    Result<BoundQuery> bound = dbdesign::ParseAndBind(catalog, q);
    if (!bound.ok()) return bound.status();
    w.Add(std::move(bound).value());
  }
  return w;
}

namespace {

double PinnedPages(const DbmsBackend& backend, const DesignConstraints& c) {
  double pages = 0.0;
  for (const IndexDef& pin : c.pinned_indexes) {
    pages += backend.EstimateIndexSize(pin).total_pages();
  }
  return pages;
}

}  // namespace

ConstraintDelta PinTwo(const IndexRecommendation& rec) {
  ConstraintDelta d;
  size_t n = rec.indexes.size() >= 2 ? std::min<size_t>(2, rec.indexes.size() - 1) : 0;
  d.pin.assign(rec.indexes.begin(), rec.indexes.begin() + static_cast<long>(n));
  return d;
}

ConstraintDelta VetoUsed(const IndexRecommendation& rec,
                         const DesignConstraints& c) {
  ConstraintDelta d;
  for (auto it = rec.indexes.rbegin(); it != rec.indexes.rend(); ++it) {
    if (std::find(c.pinned_indexes.begin(), c.pinned_indexes.end(), *it) ==
        c.pinned_indexes.end()) {
      d.veto.push_back(*it);
      break;
    }
  }
  return d;
}

ConstraintDelta CutBudget(const IndexRecommendation& rec,
                          const DesignConstraints& c,
                          const DbmsBackend& backend) {
  ConstraintDelta d;
  double pins = PinnedPages(backend, c);
  d.storage_budget_pages =
      std::max(0.75 * rec.total_size_pages, pins * (1.0 + 1e-6) + 1e-6);
  return d;
}

ConstraintDelta CapTable(const IndexRecommendation& rec,
                         const DesignConstraints& c) {
  ConstraintDelta d;
  std::map<dbdesign::TableId, int> count;
  for (const IndexDef& idx : rec.indexes) ++count[idx.table];
  if (count.empty()) return d;
  auto top = std::max_element(
      count.begin(), count.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  int pins = 0;
  for (const IndexDef& pin : c.pinned_indexes) pins += pin.table == top->first;
  d.table_caps[top->first] = std::max(top->second - 1, pins);
  return d;
}

}  // namespace perfbench
