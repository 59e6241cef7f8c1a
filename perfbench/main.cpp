// ulc_perfbench — the repository's end-to-end benchmark.
//
//   ulc_perfbench --workload <sim_paper|serve_hot|serve_churn|all>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
// traced run reports the per-layer metrics. `--workload all` runs the three
// workloads one after another in this process and prints one JSON object per
// workload, then a combined one whose metric names carry a workload prefix.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ulc_perfbench: %s\n"
               "usage: ulc_perfbench --workload <sim_paper|serve_hot|serve_churn|all>\n"
               "                     [--seed <n>] [--seconds <s>] [--trace <0|1>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0' || errno == ERANGE)
    usage((std::string("invalid ") + flag + " value: " + text).c_str());
  return v;
}

double parse_seconds(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*text == '\0' || *end != '\0' || !(v > 0.0) || v > 3600.0)
    usage((std::string("invalid --seconds value: ") + text).c_str());
  return v;
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(("missing value for " + arg).c_str());
    }
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = parse_u64(value.c_str(), "--seed");
    } else if (arg == "--seconds") {
      opt.seconds = parse_seconds(value.c_str());
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

WorkloadResult run_one(const RunOptions& opt) {
  reset_peak_rss();
  WorkloadResult res;
  if (opt.workload == "sim_paper") {
    res = run_sim_paper(opt);
  } else if (opt.workload == "serve_hot") {
    res = run_serving(serve_hot_workload(), opt);
  } else if (opt.workload == "serve_churn") {
    res = run_serving(serve_churn_workload(), opt);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  for (const Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) res.fail("metric " + m.name + " is not finite");
  }
  return res;
}

void report(const WorkloadResult& res, const RunOptions& opt) {
  std::fprintf(stderr, "== %s (seed %llu, %.3g s, %s)\n", res.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), opt.seconds,
               opt.trace ? "traced" : "untraced");
  for (const std::string& line : res.report) std::fprintf(stderr, "   %s\n", line.c_str());
  for (const Metric& m : res.metrics)
    std::fprintf(stderr, "   %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::fprintf(stderr, "   failed_frac %.6g (%llu of %llu operations)  correct %s\n",
               res.attempted > 0 ? static_cast<double>(res.failed) / res.attempted : 0.0,
               static_cast<unsigned long long>(res.failed),
               static_cast<unsigned long long>(res.attempted), res.correct ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = parse(argc, argv);
  if (opt.workload != "all") {
    const WorkloadResult res = run_one(opt);
    report(res, opt);
    std::printf("%s\n", result_json(res).c_str());
    return 0;
  }
  WorkloadResult combined;
  combined.workload = "all";
  for (const char* name : {"sim_paper", "serve_hot", "serve_churn"}) {
    RunOptions one = opt;
    one.workload = name;
    const WorkloadResult res = run_one(one);
    report(res, one);
    std::printf("%s\n", result_json(res).c_str());
    std::fflush(stdout);
    combined.correct = combined.correct && res.correct;
    combined.attempted += res.attempted;
    combined.failed += res.failed;
    for (const Metric& m : res.metrics) combined.add(res.workload + "." + m.name, m.value, m.unit);
  }
  std::printf("%s\n", result_json(combined).c_str());
  return 0;
}
