// `collect` records a result set (every workload, several seeds, one
// traced run each) and `compare` judges two result sets against the bounds
// in BENCHMARK.json: medians and quartiles per side, the share of
// seed-matched pairs the change wins, a regression when the change's median
// is worse than the parent's by more than the bound, and "unresolved" when
// the parent's own spread exceeds the bound. Outputs must not change: a
// seed-matched run whose output digest or accuracy line differs fails the
// comparison like a regression does.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <thread>

#include "perf.h"

namespace xmem::perf {

namespace {

util::Json read_json(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  return util::Json::parse(text);
}

std::string cpu_model() {
  std::ifstream file("/proc/cpuinfo");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Run this program with `args`; returns its exit status and stdout.
int run_child(const std::vector<std::string>& args, std::string& output) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  std::vector<const char*> argv = {"/proc/self/exe"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(argv[0], const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  ::close(pipe_fds[1]);
  output.clear();
  char buffer[4096];
  for (ssize_t n; (n = ::read(pipe_fds[0], buffer, sizeof(buffer))) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    output.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

util::Json collect_one(const std::string& workload, std::uint64_t seed,
                       double seconds, bool trace) {
  std::vector<std::string> args = {"run",       "--workload",
                                   workload,    "--seed",
                                   std::to_string(seed), "--seconds",
                                   std::to_string(seconds), "--trace",
                                   trace ? "1" : "0"};
  const auto start = Clock::now();
  std::string output;
  const int status = run_child(args, output);
  const double wall_s = ms_between(start, Clock::now()) / 1000.0;
  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin < output.size();) {
    std::size_t end = output.find('\n', begin);
    if (end == std::string::npos) end = output.size();
    if (end > begin) lines.push_back(output.substr(begin, end - begin));
    begin = end + 1;
  }
  if (status != 0 || lines.empty()) {
    throw std::runtime_error(workload + " seed " + std::to_string(seed) +
                             " exited " + std::to_string(status));
  }
  util::Json run = util::Json::object();
  run["workload"] = util::Json(workload);
  run["seed"] = util::Json(static_cast<std::int64_t>(seed));
  run["trace"] = util::Json(trace);
  run["wall_s"] = util::Json(wall_s);
  run["result"] = util::Json::parse(lines.back());
  util::Json notes = util::Json::array();
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    notes.push_back(util::Json(lines[i]));
  }
  run["notes"] = std::move(notes);
  std::fprintf(stderr, "collect: %s seed %llu trace %d: %.1f s\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               trace ? 1 : 0, wall_s);
  return run;
}

struct Side {
  std::vector<double> values;
  std::map<std::int64_t, double> by_seed;
};

Side values_of(const util::Json& set, const std::string& workload,
               const std::string& metric, bool trace) {
  Side side;
  for (const util::Json& run : set.at("runs").as_array()) {
    if (run.at("workload").as_string() != workload ||
        run.at("trace").as_bool() != trace) {
      continue;
    }
    const util::Json& metrics = run.at("result").at("metrics");
    if (!metrics.contains(metric)) continue;
    const double value = metrics.at(metric).at("value").as_double();
    side.values.push_back(value);
    side.by_seed[run.at("seed").as_int()] = value;
  }
  return side;
}

/// The run's note line that starts with `prefix`, "" when it has none.
std::string note_of(const util::Json& run, const std::string& prefix) {
  for (const util::Json& note : run.at("notes").as_array()) {
    const std::string& text = note.as_string();
    if (text.rfind(prefix, 0) == 0) return text;
  }
  return std::string();
}

/// Compare the outputs of the untraced runs the two sets share a seed for:
/// the digest of the replies, and cold-estimate's accuracy line. Prints
/// every difference; returns false when any run differs or no seed matched.
bool same_outputs(const util::Json& parent, const util::Json& change,
                  const std::string& workload) {
  static const std::vector<std::pair<std::string, std::string>> kChecks = {
      {"output_digest.", "OUTPUT CHANGED"}, {"mre_pct=", "ACCURACY CHANGED"}};
  std::size_t matched = 0;
  std::size_t changed = 0;
  for (const util::Json& run : parent.at("runs").as_array()) {
    if (run.at("workload").as_string() != workload ||
        run.at("trace").as_bool()) {
      continue;
    }
    for (const util::Json& other : change.at("runs").as_array()) {
      if (other.at("workload").as_string() != workload ||
          other.at("trace").as_bool() ||
          other.at("seed").as_int() != run.at("seed").as_int()) {
        continue;
      }
      ++matched;
      bool differs = false;
      for (const auto& [prefix, verdict] : kChecks) {
        const std::string before = note_of(run, prefix);
        const std::string after = note_of(other, prefix);
        if (before == after) continue;
        differs = true;
        std::printf("%s, seed %lld: parent '%s', change '%s'\n",
                    verdict.c_str(),
                    static_cast<long long>(run.at("seed").as_int()),
                    before.c_str(), after.c_str());
      }
      if (differs) ++changed;
      break;
    }
  }
  std::printf("outputs identical on %zu of %zu seed-matched runs%s\n",
              matched - changed, matched,
              matched == 0 ? "  NOTHING TO COMPARE" : "");
  return matched > 0 && changed == 0;
}

}  // namespace

int collect_main(int argc, char** argv) {
  std::string out;
  std::string commit = "unknown";
  std::size_t runs = 10;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--out") {
      out = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--runs") {
      runs = std::stoul(value);
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (out.empty()) throw std::invalid_argument("collect needs --out FILE");
  const auto seconds = static_cast<double>(
      read_json("BENCHMARK.json").get_int_or("run_seconds", 10));
  util::Json meta = util::Json::object();
  meta["commit"] = util::Json(commit);
  meta["nproc"] =
      util::Json(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  meta["cpu"] = util::Json(cpu_model());
  meta["build_type"] = util::Json(XMEM_PERF_BUILD_TYPE);
  meta["compiler"] = util::Json(XMEM_PERF_COMPILER);
  meta["run_seconds"] = util::Json(seconds);
  // Seeds 1..runs in every set, so any two sets pair run by run.
  std::vector<util::Json> all;
  for (std::size_t r = 0; r < runs; ++r) {
    for (const std::string& workload : workload_names()) {
      all.push_back(collect_one(workload, 1 + r, seconds, false));
    }
  }
  for (const std::string& workload : workload_names()) {
    all.push_back(collect_one(workload, 1, seconds, true));
  }
  // One run per line, so two ledgers diff run by run.
  std::ofstream file(out);
  file << "{\"meta\": " << meta.dump() << ",\n\"runs\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    file << all[i].dump() << (i + 1 < all.size() ? ",\n" : "\n");
  }
  file << "]}\n";
  if (!file) throw std::runtime_error("cannot write " + out);
  return 0;
}

int compare_main(int argc, char** argv) {
  if (argc != 2) {
    throw std::invalid_argument("compare needs PARENT.json CHANGE.json");
  }
  const std::vector<std::string> paths = {argv[0], argv[1]};
  const util::Json parent = read_json(paths[0]);
  const util::Json change = read_json(paths[1]);
  const util::Json benchmark = read_json("BENCHMARK.json");
  std::printf("parent: %s (%s)\nchange: %s (%s)\n", paths[0].c_str(),
              parent.at("meta").get_string_or("commit", "?").c_str(),
              paths[1].c_str(),
              change.at("meta").get_string_or("commit", "?").c_str());

  bool regression = false;
  bool output_changed = false;
  for (const std::string& workload : workload_names()) {
    std::printf("\n== %s\n", workload.c_str());
    std::printf("%-18s %34s %34s %8s %7s %7s %6s  %s\n", "metric",
                "parent median [q1, q3]", "change median [q1, q3]", "delta",
                "wins", "spread", "bound", "verdict");
    for (const util::Json& entry : benchmark.at("end_to_end").as_array()) {
      const std::string name = entry.at("name").as_string();
      const bool lower = entry.at("better").as_string() == "lower";
      const double bound = entry.at("bound").as_double();
      const Side p = values_of(parent, workload, name, false);
      const Side c = values_of(change, workload, name, false);
      if (p.values.empty() || c.values.empty()) continue;
      const double pm = median(p.values);
      const double cm = median(c.values);
      const std::vector<double> pq = quartiles(p.values);
      const std::vector<double> cq = quartiles(c.values);
      // Positive `worse` means the change is worse, as a share of parent.
      const double worse = pm != 0.0 ? (lower ? cm - pm : pm - cm) / pm : 0.0;
      const double spread = pm != 0.0 ? (pq[2] - pq[0]) / pm : 0.0;
      std::size_t wins = 0;
      std::size_t pairs = 0;
      for (const auto& [seed, value] : p.by_seed) {
        const auto it = c.by_seed.find(seed);
        if (it == c.by_seed.end()) continue;
        ++pairs;
        if (lower ? it->second < value : it->second > value) ++wins;
      }
      const double change_best = lower ? *std::max_element(c.values.begin(), c.values.end())
                                       : *std::min_element(c.values.begin(), c.values.end());
      const double parent_best = lower ? *std::min_element(p.values.begin(), p.values.end())
                                       : *std::max_element(p.values.begin(), p.values.end());
      const bool all_better = lower ? change_best < parent_best
                                    : change_best > parent_best;
      std::string verdict = "ok";
      if (worse > bound) {
        verdict = "REGRESSION";
        regression = true;
      } else if (spread > bound && !all_better) {
        verdict = "unresolved";
      } else if (pairs > 0 && wins * 10 >= pairs * 9 &&
                 std::abs(cm - pm) > pq[2] - pq[0] && worse < 0.0) {
        verdict = "improved";
      }
      char parent_text[64];
      char change_text[64];
      std::snprintf(parent_text, sizeof(parent_text), "%.4g [%.4g, %.4g]", pm,
                    pq[0], pq[2]);
      std::snprintf(change_text, sizeof(change_text), "%.4g [%.4g, %.4g]", cm,
                    cq[0], cq[2]);
      std::printf("%-18s %34s %34s %+7.2f%% %3zu/%-3zu %6.2f%% %5.1f%%  %s\n",
                  name.c_str(), parent_text, change_text,
                  100.0 * (pm != 0.0 ? (cm - pm) / pm : 0.0), wins, pairs,
                  100.0 * spread, 100.0 * bound, verdict.c_str());
    }

    if (!same_outputs(parent, change, workload)) output_changed = true;

    std::printf("per-layer (traced run): %-40s %14s %14s\n", "", "parent",
                "change");
    for (const util::Json& entry : benchmark.at("per_layer").as_array()) {
      const std::string name = entry.at("name").as_string();
      const Side p = values_of(parent, workload, name, true);
      const Side c = values_of(change, workload, name, true);
      if (p.values.empty() && c.values.empty()) continue;
      std::printf("  %-62s %14.6g %14.6g %s\n", name.c_str(), median(p.values),
                  median(c.values), entry.at("unit").as_string().c_str());
    }
  }
  if (regression || output_changed) {
    std::printf("\nfailed:%s%s\n", regression ? " REGRESSION" : "",
                output_changed ? " OUTPUT/ACCURACY CHANGED" : "");
    return 1;
  }
  return 0;
}

}  // namespace xmem::perf
