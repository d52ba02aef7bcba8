// perfbench: the designer's end-to-end benchmark.
//
//   perfbench --workload <dba_loop|wide_templates|tenant_fleet|tenant_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//
// Runs one workload and prints its notes, then one JSON line with
// `correct`, `attempted`, `failed` and `metrics`, and flushes stdout.
// One process runs one workload, so that the process-wide state of one
// (heap, threads, caches) never carries into the next; run.py starts a
// process per workload. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer metrics of a traced run over the same inputs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "util/json.h"

namespace {

struct WorkloadEntry {
  const char* name;
  perfbench::RunResult (*run)(const perfbench::RunOptions&);
};

const WorkloadEntry kWorkloads[] = {
    {"dba_loop", &perfbench::RunDbaLoop},
    {"wide_templates", &perfbench::RunWideTemplates},
    {"tenant_fleet", &perfbench::RunTenantFleet},
    {"tenant_churn", &perfbench::RunTenantChurn},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>]\n",
               msg);
  return 2;
}

void Print(const char* workload, const perfbench::RunOptions& options,
           const perfbench::RunResult& r) {
  std::printf("# workload %s seed %llu seconds %g trace %d\n", workload,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : r.notes) std::printf("#   %s\n", note.c_str());
  for (const std::string& v : r.violations) {
    std::printf("#   CHECK FAILED %s\n", v.c_str());
  }
  dbdesign::Json metrics = dbdesign::Json::Object();
  for (const auto& [name, value] : r.metrics) {
    dbdesign::Json m = dbdesign::Json::Object();
    m["value"] = dbdesign::Json::Number(value.first);
    m["unit"] = dbdesign::Json::Str(value.second);
    metrics[name] = std::move(m);
  }
  dbdesign::Json out = dbdesign::Json::Object();
  out["correct"] = dbdesign::Json::Bool(r.correct());
  out["attempted"] = dbdesign::Json::Number(static_cast<double>(r.attempted));
  out["failed"] = dbdesign::Json::Number(static_cast<double>(r.failed));
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--scratch") {
      options.scratch_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  for (const WorkloadEntry& w : kWorkloads) {
    if (options.workload != w.name) continue;
    perfbench::RunResult r = w.run(options);
    Print(w.name, options, r);
    return r.correct() && r.failed == 0 ? 0 : 1;
  }
  return Usage(("unknown workload " + options.workload).c_str());
}
