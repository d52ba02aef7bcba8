#include "inputs.h"

#include <algorithm>
#include <cstdio>

#include "util/str.h"

namespace perfbench {

using dbdesign::Rng;
using dbdesign::SdssTemplate;
using dbdesign::StrFormat;

SdssTrace MakeSdssTrace(Rng& rng, int n, int families_in) {
  SdssTrace trace;
  std::vector<int> all(dbdesign::kNumSdssTemplates);
  for (int i = 0; i < dbdesign::kNumSdssTemplates; ++i) all[i] = i;
  rng.Shuffle(all);
  trace.families.assign(all.begin(), all.begin() + families_in);
  trace.held_out.assign(all.begin() + families_in, all.end());
  std::sort(trace.families.begin(), trace.families.end());
  std::sort(trace.held_out.begin(), trace.held_out.end());
  std::vector<double> weights;
  double total = 0.0;
  for (size_t i = 0; i < trace.families.size(); ++i) {
    weights.push_back(rng.UniformDouble(1.0, 4.0));
    total += weights.back();
  }
  // Every family appears at least once, the rest follow the weights.
  for (int f : trace.families) {
    trace.sql.push_back(
        dbdesign::GenerateSdssSql(static_cast<SdssTemplate>(f), rng));
  }
  while (static_cast<int>(trace.sql.size()) < n) {
    double x = rng.UniformDouble(0.0, total);
    size_t k = 0;
    while (k + 1 < weights.size() && x > weights[k]) x -= weights[k++];
    trace.sql.push_back(dbdesign::GenerateSdssSql(
        static_cast<SdssTemplate>(trace.families[k]), rng));
  }
  return trace;
}

std::vector<std::string> MakeSdssBatch(Rng& rng, const std::vector<int>& families,
                                       int n) {
  std::vector<std::string> sql;
  for (int i = 0; i < n; ++i) {
    int f = families[static_cast<size_t>(i) % families.size()];
    sql.push_back(dbdesign::GenerateSdssSql(static_cast<SdssTemplate>(f), rng));
  }
  return sql;
}

namespace {

// A filterable column and the value domain the SDSS generator fills it
// from, so generated predicates keep realistic selectivities.
struct Column {
  const char* name;
  bool integer;
  double lo;
  double hi;
};

struct Table {
  const char* name;
  const char* alias;
  std::vector<Column> filters;
  std::vector<const char*> outputs;  ///< select / group / order columns
};

const std::vector<Table>& Tables() {
  static const std::vector<Table> tables = {
      {"photoobj", "p",
       {{"ra", false, 0, 360},        {"dec", false, -60, 60},
        {"run", true, 94, 466},       {"camcol", true, 1, 6},
        {"field", true, 11, 70},      {"type", true, 0, 8},
        {"psfmag_u", false, 18, 26},  {"psfmag_g", false, 17, 25},
        {"psfmag_r", false, 16, 24},  {"psfmag_i", false, 15, 23},
        {"psfmag_z", false, 15, 23},  {"petror50_r", false, 0, 6},
        {"extinction_r", false, 0, 0.2}, {"mode", true, 1, 4},
        {"clean", true, 0, 1},        {"score", false, 0, 1},
        {"mjd", true, 51000, 51500},  {"nchild", true, 0, 6}},
       {"objid", "ra", "dec", "run", "camcol", "type", "psfmag_r", "mjd"}},
      {"specobj", "s",
       {{"z", false, 0, 2},           {"zerr", false, 0, 0.001},
        {"class", true, 0, 2},        {"plate", true, 266, 300},
        {"mjd", true, 51000, 51400},  {"fiberid", true, 1, 640},
        {"sn_median", false, 0, 20},  {"veldisp", false, 0, 350},
        {"zwarning", true, 0, 128}},
       {"specobjid", "z", "class", "plate", "mjd"}},
      {"neighbors", "n",
       {{"distance", false, 0, 0.06}, {"neighbortype", true, 3, 6},
        {"mode", true, 1, 4}},
       {"neighborobjid", "distance", "neighbortype"}},
      {"field", "f",
       {{"run", true, 94, 466},       {"camcol", true, 1, 6},
        {"field", true, 11, 90},      {"ra", false, 0, 360},
        {"dec", false, -60, 60},      {"mjd", true, 51000, 51500},
        {"quality", true, 1, 4},      {"nobjects", true, 80, 900},
        {"sky", false, 19, 23}},
       {"fieldid", "run", "field", "quality", "mjd"}},
      {"plate", "pl",
       {{"mjd", true, 51000, 51900},  {"ra", false, 0, 360},
        {"dec", false, -60, 60},      {"quality", true, 1, 5},
        {"nspec", true, 400, 640},    {"sn1", false, 4, 20}},
       {"plateid", "plate", "mjd", "quality"}},
  };
  return tables;
}

// Join shapes over foreign keys: table indexes plus ON clauses.
struct JoinShape {
  std::vector<int> tables;
  std::vector<const char*> on;
};

const std::vector<JoinShape>& JoinShapes() {
  static const std::vector<JoinShape> shapes = {
      {{0, 1}, {"p.objid = s.bestobjid"}},
      {{0, 2}, {"p.objid = n.objid"}},
      {{1, 4}, {"s.plate = pl.plate"}},
      {{0, 1, 4}, {"p.objid = s.bestobjid", "s.plate = pl.plate"}},
  };
  return shapes;
}

enum class Op { kRange, kEq, kLess, kGreater };

struct Predicate {
  int table = 0;
  int column = 0;
  Op op = Op::kRange;
};

// The structure of one template; instances differ only in constants.
struct Shape {
  std::vector<int> tables;
  std::vector<const char*> on;
  std::vector<std::pair<int, const char*>> outputs;
  std::vector<Predicate> predicates;
  bool group = false;  ///< GROUP BY the first output, COUNT(*)
  bool order = false;  ///< ORDER BY the first output
};

Shape DrawShape(Rng& rng) {
  const std::vector<Table>& tables = Tables();
  Shape shape;
  double j = rng.UniformDouble();
  if (j < 0.55) {
    shape.tables = {static_cast<int>(rng.UniformInt(0, 4))};
  } else {
    const JoinShape& js =
        JoinShapes()[static_cast<size_t>(rng.UniformInt(0, 3))];
    shape.tables = js.tables;
    shape.on = js.on;
  }
  for (int t : shape.tables) {
    const Table& table = tables[static_cast<size_t>(t)];
    int k = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<int> cols = rng.SampleWithoutReplacement(
        static_cast<int>(table.filters.size()),
        std::min(k, static_cast<int>(table.filters.size())));
    std::sort(cols.begin(), cols.end());
    for (int c : cols) {
      Predicate p;
      p.table = t;
      p.column = c;
      const Column& col = table.filters[static_cast<size_t>(c)];
      double r = rng.UniformDouble();
      if (col.integer && col.hi - col.lo <= 8) {
        p.op = r < 0.7 ? Op::kEq : Op::kGreater;
      } else {
        p.op = r < 0.6 ? Op::kRange : (r < 0.8 ? Op::kLess : Op::kGreater);
      }
      shape.predicates.push_back(p);
    }
    int outs = static_cast<int>(rng.UniformInt(1, 2));
    std::vector<int> picks = rng.SampleWithoutReplacement(
        static_cast<int>(table.outputs.size()), outs);
    std::sort(picks.begin(), picks.end());
    for (int o : picks) {
      shape.outputs.emplace_back(t, table.outputs[static_cast<size_t>(o)]);
    }
  }
  double g = rng.UniformDouble();
  shape.group = g < 0.2;
  shape.order = !shape.group && g < 0.45;
  return shape;
}

std::string Literal(const Column& col, double v) {
  if (col.integer) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.4f", v);
}

std::string Instantiate(const Shape& shape, Rng& rng) {
  const std::vector<Table>& tables = Tables();
  auto ref = [&](int t, const char* col) {
    return std::string(tables[static_cast<size_t>(t)].alias) + "." + col;
  };
  std::string sql = "SELECT ";
  if (shape.group) {
    sql += ref(shape.outputs[0].first, shape.outputs[0].second) + ", COUNT(*)";
  } else {
    for (size_t i = 0; i < shape.outputs.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += ref(shape.outputs[i].first, shape.outputs[i].second);
    }
  }
  sql += " FROM ";
  for (size_t i = 0; i < shape.tables.size(); ++i) {
    const Table& t = tables[static_cast<size_t>(shape.tables[i])];
    if (i > 0) sql += " JOIN ";
    sql += std::string(t.name) + " " + t.alias;
    if (i > 0) sql += std::string(" ON ") + shape.on[i - 1];
  }
  for (size_t i = 0; i < shape.predicates.size(); ++i) {
    const Predicate& p = shape.predicates[i];
    const Table& t = tables[static_cast<size_t>(p.table)];
    const Column& col = t.filters[static_cast<size_t>(p.column)];
    sql += i == 0 ? " WHERE " : " AND ";
    sql += ref(p.table, col.name);
    double span = col.hi - col.lo;
    switch (p.op) {
      case Op::kEq:
        sql += " = " + Literal(col, rng.UniformInt(static_cast<int64_t>(col.lo),
                                                   static_cast<int64_t>(col.hi)));
        break;
      case Op::kRange: {
        double lo = rng.UniformDouble(col.lo, col.hi - span * 0.1);
        double hi = lo + span * rng.UniformDouble(0.02, 0.1);
        if (col.integer && hi - lo < 1) hi = lo + 1;
        sql += " BETWEEN " + Literal(col, lo) + " AND " + Literal(col, hi);
        break;
      }
      case Op::kLess:
        sql += " < " + Literal(col, col.lo + span * rng.UniformDouble(0.02, 0.2));
        break;
      case Op::kGreater:
        sql += " > " + Literal(col, col.hi - span * rng.UniformDouble(0.02, 0.2));
        break;
    }
  }
  if (shape.group) {
    sql += " GROUP BY " + ref(shape.outputs[0].first, shape.outputs[0].second);
  }
  if (shape.order) {
    sql += " ORDER BY " + ref(shape.outputs[0].first, shape.outputs[0].second);
  }
  return sql;
}

}  // namespace

WideTrace MakeWideTrace(Rng& rng, int n, int batch) {
  std::vector<Shape> shapes;
  for (int i = 0; i < n; ++i) shapes.push_back(DrawShape(rng));
  WideTrace trace;
  for (const Shape& shape : shapes) trace.sql.push_back(Instantiate(shape, rng));
  for (int i = 0; i < batch; ++i) {
    const Shape& shape = shapes[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    trace.batch.push_back(Instantiate(shape, rng));
  }
  return trace;
}

}  // namespace perfbench
