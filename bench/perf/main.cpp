// xmem_perf: the repository benchmark (README.md).
//
//   xmem_perf [run] --workload W --seed N --seconds S --trace 0|1
//             [--smoke] [--trace-file FILE]
//   xmem_perf collect --out FILE [--runs N] [--commit ID]
//   xmem_perf compare PARENT.json CHANGE.json
//
// `run` prints note lines, then one JSON result as the last line of
// standard output; it exits 0 only when every output checked correct.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "perf.h"
#include "run.h"

namespace xmem::perf {
int collect_main(int argc, char** argv);
int compare_main(int argc, char** argv);
}  // namespace xmem::perf

namespace {

using namespace xmem;

int usage() {
  std::fprintf(stderr,
               "usage: xmem_perf [run] --workload W --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-file FILE]\n"
               "       xmem_perf collect --out FILE [--runs N] [--commit ID]\n"
               "       xmem_perf compare PARENT.json CHANGE.json\n"
               "workloads:");
  for (const std::string& name : perf::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Check the run's metrics against BENCHMARK.json (when present in the
/// working directory): the same names and units as the list for the mode.
bool matches_benchmark(const std::vector<perf::Metric>& metrics, bool trace) {
  std::ifstream file("BENCHMARK.json");
  if (!file) return true;
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  const util::Json spec = util::Json::parse(text);
  std::map<std::string, std::string> expected;
  for (const util::Json& entry :
       spec.at(trace ? "per_layer" : "end_to_end").as_array()) {
    expected[entry.at("name").as_string()] = entry.at("unit").as_string();
  }
  std::map<std::string, std::string> actual;
  for (const perf::Metric& metric : metrics) actual[metric.name] = metric.unit;
  if (actual == expected) return true;
  for (const auto& [name, unit] : expected) {
    const auto it = actual.find(name);
    if (it == actual.end()) {
      std::fprintf(stderr, "metric %s is in BENCHMARK.json but not measured\n",
                   name.c_str());
    } else if (it->second != unit) {
      std::fprintf(stderr, "metric %s: unit %s, BENCHMARK.json says %s\n",
                   name.c_str(), it->second.c_str(), unit.c_str());
    }
  }
  for (const auto& [name, unit] : actual) {
    if (expected.count(name) == 0) {
      std::fprintf(stderr, "metric %s is measured but not in BENCHMARK.json\n",
                   name.c_str());
    }
  }
  return false;
}

int run_main(int argc, char** argv) {
  perf::RunOptions options;
  options.work_dir = ".bench_build/perf/run";
  options.cli = XMEM_PERF_CLI;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = trace == "1";
      have_trace = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--trace-file") {
      options.trace_file = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  const auto& names = perf::workload_names();
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return usage();
  }
  std::filesystem::create_directories(options.work_dir);

  const perf::RunReport report = perf::run_workload(options);
  if (!matches_benchmark(report.metrics, options.trace)) return 3;
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  util::Json metrics = util::Json::object();
  for (const perf::Metric& metric : report.metrics) {
    util::Json entry = util::Json::object();
    entry["value"] = util::Json(metric.value);
    entry["unit"] = util::Json(metric.unit);
    metrics[metric.name] = std::move(entry);
  }
  const bool correct = report.failed == 0;
  util::Json result = util::Json::object();
  result["correct"] = util::Json(correct);
  result["attempted"] =
      util::Json(static_cast<std::int64_t>(report.attempted));
  result["failed"] = util::Json(static_cast<std::int64_t>(report.failed));
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "collect") == 0) {
      return perf::collect_main(argc - 2, argv + 2);
    }
    if (argc >= 2 && std::strcmp(argv[1], "compare") == 0) {
      return perf::compare_main(argc - 2, argv + 2);
    }
    if (argc >= 2 && std::strcmp(argv[1], "run") == 0) {
      return run_main(argc - 2, argv + 2);
    }
    if (argc < 2) return usage();
    return run_main(argc - 1, argv + 1);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "xmem_perf: %s\n", error.what());
    return 2;
  }
}
