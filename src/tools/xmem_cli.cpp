// xmem — command-line front end, the artifact a cluster operator would
// actually invoke from a submission hook:
//
//   xmem estimate --model gpt2 --batch 10 --optimizer AdamW
//                 --device rtx3060 [--allocator pytorch|tf-bfc|...]
//                 [--estimator xMem|DNNMem|...] [--pos0] [--json] [--curve]
//   xmem verify   ... (same flags; also runs the simulated ground truth)
//   xmem sweep    REQUEST.json [--out FILE] [--no-timings] [--serial]
//                 (profile-once/estimate-many: one job x devices x
//                  allocators x estimators, JSON report on stdout; the
//                  request's optional "allocator_config" object maps a
//                  backend name to its integer policy knobs)
//   xmem plan     REQUEST.json [--out FILE] [--no-timings] [--serial]
//                 [--refine-top-k N | --refine-all | --no-refine]
//                 [--comm-overlap]
//                 (multi-GPU planner: ranked DPxTPxPP decompositions of a
//                  GPU budget; the top-K candidates — K defaults to 4 —
//                  are re-simulated per rank through the allocator tower,
//                  with symmetric ranks collapsed onto one replay;
//                  --refine-all replays every ranked decomposition; one
//                  CPU profile for the whole two-phase search.
//                  --comm-overlap simulates collectives as schedule-tied
//                  overlap windows and re-ranks the refined candidates by
//                  window peaks)
//   xmem fleet    REQUEST.json [--out FILE] [--no-timings] [--serial]
//                 (fleet packing: a queue of jobs placed onto a
//                  heterogeneous GPU fleet under a packing policy, with
//                  admit/defer/reject verdicts per job — docs/SCHEDULER.md)
//   xmem serve    --socket PATH [--workers N] [--queue N]
//                 [--service-threads N] [--profile-cache N]
//                 [--tenant-quota N] [--reject-over-quota] [--max-frame N]
//                 (long-running estimation daemon on a Unix socket;
//                  length-prefixed JSON frames, request coalescing,
//                  per-tenant quotas, graceful SIGTERM/SIGINT shutdown —
//                  docs/SERVER.md)
//   xmem request  --socket PATH (--sweep FILE | --plan FILE | --fleet FILE
//                 | --stats | --ping | --shutdown | --raw FILE)
//                 [--tenant NAME] [--out FILE] [--timeout MS]
//                 (one request against a running daemon; sweep/plan/fleet
//                  print the same report JSON as the offline subcommands)
//   xmem models
//   xmem devices
//   xmem backends
//   xmem estimators
//   xmem policies
//
// Exit code for `estimate`/`verify`: 0 = fits the device, 2 = predicted
// OOM, 1 = usage/config error — so shell scripts can gate submissions on it.
// `sweep`/`plan`/`fleet`: 0 on success (per-device / per-job verdicts live
// in the report), 1 on usage/config error (including malformed request
// JSON).
// `request`: 0 on an ok reply, 2 when the server answered with an error
// frame (code + message on stderr), 1 on usage/transport error.
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/backend_registry.h"
#include "core/estimation_service.h"
#include "core/estimator_registry.h"
#include "gpu/ground_truth.h"
#include "models/workload.h"
#include "models/zoo.h"
#include "sched/fleet_planner.h"
#include "sched/packing_policy.h"
#include "server/client.h"
#include "server/server.h"
#include "util/bytes.h"
#include "util/json.h"

namespace {

using namespace xmem;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  xmem estimate --model NAME --batch N [--optimizer OPT]\n"
               "                [--device rtx3060|rtx4060|a100] [--pos0]\n"
               "                [--allocator NAME] [--estimator NAME]\n"
               "                [--iterations N] [--json] [--curve]\n"
               "  xmem verify   (same flags; adds a simulated ground-truth "
               "run)\n"
               "  xmem sweep    REQUEST.json [--out FILE] [--no-timings] "
               "[--serial]\n"
               "  xmem plan     REQUEST.json [--out FILE] [--no-timings] "
               "[--serial]\n"
               "                [--refine-top-k N (default 4) | --refine-all "
               "|\n"
               "                --no-refine] [--comm-overlap]\n"
               "  xmem fleet    REQUEST.json [--out FILE] [--no-timings] "
               "[--serial]\n"
               "  xmem serve    --socket PATH [--workers N] [--queue N]\n"
               "                [--service-threads N] [--profile-cache N]\n"
               "                [--tenant-quota N] [--reject-over-quota]\n"
               "                [--max-frame BYTES]\n"
               "  xmem request  --socket PATH (--sweep FILE | --plan FILE |\n"
               "                --fleet FILE | --stats | --ping | --shutdown "
               "|\n"
               "                --raw FILE)\n"
               "                [--tenant NAME] [--out FILE] [--timeout MS]\n"
               "  xmem models\n"
               "  xmem devices\n"
               "  xmem backends   (allocator models for --allocator; knobbed\n"
               "                   backends list their \"allocator_config\"\n"
               "                   request keys)\n"
               "  xmem estimators (estimation engines for --estimator)\n"
               "  xmem policies   (packing policies for fleet requests)\n");
  return 1;
}

struct Cli {
  std::string command;
  std::string model;
  int batch = 0;
  std::string optimizer = "AdamW";
  std::string device = "rtx3060";
  std::string allocator = alloc::kDefaultBackendName;
  std::string estimator = "xMem";
  std::string request_file;
  std::string out_file;
  bool pos0 = false;
  bool json = false;
  bool curve = false;
  bool no_timings = false;
  bool serial = false;
  bool no_refine = false;
  bool refine_all = false;  ///< --refine-all: replay every decomposition
  int refine_top_k = -1;  ///< -1: keep the request document's value
  bool comm_overlap = false;  ///< --comm-overlap: overlap-window simulation
  int iterations = 3;

  // serve / request
  std::string socket_path;
  std::string tenant;
  std::string sweep_file;
  std::string plan_file;
  std::string fleet_file;
  std::string raw_file;
  bool stats = false;
  bool ping = false;
  bool shutdown = false;
  int timeout_ms = 30000;
  std::size_t workers = 4;
  std::size_t queue = 64;
  std::size_t service_threads = 1;
  std::size_t profile_cache = core::ProfileSession::kDefaultCapacity;
  std::size_t tenant_quota = 0;
  bool reject_over_quota = false;
  std::size_t max_frame = server::kDefaultMaxFrameBytes;
};

/// Parse a numeric flag's value strictly: decimal digits only (no sign,
/// space or trailing characters), at most the field type's maximum.
template <typename N>
bool parse_count(const char* flag, const char* text, N& out) {
  const std::uint64_t max = std::numeric_limits<N>::max();
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || value > max) {
    std::fprintf(stderr, "%s: expects an integer in 0..%llu, got '%s'\n",
                 flag, static_cast<unsigned long long>(max), text);
    return false;
  }
  out = static_cast<N>(value);
  return true;
}

bool parse_args(int argc, char** argv, Cli& cli) {
  if (argc < 2) return false;
  cli.command = argv[1];
  const std::map<std::string, bool*> switches = {
      {"--pos0", &cli.pos0},
      {"--json", &cli.json},
      {"--curve", &cli.curve},
      {"--no-timings", &cli.no_timings},
      {"--serial", &cli.serial},
      {"--no-refine", &cli.no_refine},
      {"--refine-all", &cli.refine_all},
      {"--comm-overlap", &cli.comm_overlap},
      {"--stats", &cli.stats},
      {"--ping", &cli.ping},
      {"--shutdown", &cli.shutdown},
      {"--reject-over-quota", &cli.reject_over_quota},
  };
  using Setter = std::function<bool(const char* flag, const char* value)>;
  const auto text = [](std::string& field) -> Setter {
    return [&field](const char*, const char* value) {
      field = value;
      return true;
    };
  };
  const auto count = [](auto& field) -> Setter {
    return [&field](const char* flag, const char* value) {
      return parse_count(flag, value, field);
    };
  };
  const std::map<std::string, Setter> valued = {
      {"--model", text(cli.model)},
      {"--batch", count(cli.batch)},
      {"--optimizer", text(cli.optimizer)},
      {"--device", text(cli.device)},
      {"--allocator", text(cli.allocator)},
      {"--estimator", text(cli.estimator)},
      {"--iterations", count(cli.iterations)},
      {"--out", text(cli.out_file)},
      {"--socket", text(cli.socket_path)},
      {"--tenant", text(cli.tenant)},
      {"--sweep", text(cli.sweep_file)},
      {"--plan", text(cli.plan_file)},
      {"--fleet", text(cli.fleet_file)},
      {"--raw", text(cli.raw_file)},
      {"--timeout", count(cli.timeout_ms)},
      {"--workers", count(cli.workers)},
      {"--queue", count(cli.queue)},
      {"--service-threads", count(cli.service_threads)},
      {"--profile-cache", count(cli.profile_cache)},
      {"--tenant-quota", count(cli.tenant_quota)},
      {"--max-frame", count(cli.max_frame)},
      {"--refine-top-k", count(cli.refine_top_k)},
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const auto it = switches.find(arg); it != switches.end()) {
      *it->second = true;
    } else if (const auto setter = valued.find(arg); setter != valued.end()) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return false;
      }
      if (!setter->second(arg.c_str(), argv[++i])) return false;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else if ((cli.command == "sweep" || cli.command == "plan" ||
                cli.command == "fleet") &&
               cli.request_file.empty()) {
      cli.request_file = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int list_models() {
  std::printf("%-32s %-12s %10s %s\n", "model", "family", "params(M)",
              "batch grid");
  for (const auto& name : models::all_model_names()) {
    const fw::ModelDescriptor model = models::build_model(name, 1);
    const auto grid = models::batch_grid_for(name);
    std::printf("%-32s %-12s %10.1f %d..%d\n", name.c_str(),
                to_string(model.family),
                static_cast<double>(model.param_count()) / 1e6, grid.front(),
                grid.back());
  }
  return 0;
}

int list_devices() {
  for (const gpu::DeviceModel& device : gpu::all_devices()) {
    std::printf("%-20s capacity %-10s M_init %-10s M_fm %-10s job budget %s\n",
                device.name.c_str(), util::format_bytes(device.capacity).c_str(),
                util::format_bytes(device.m_init).c_str(),
                util::format_bytes(device.m_fm).c_str(),
                util::format_bytes(device.job_budget()).c_str());
  }
  return 0;
}

int list_backends() {
  for (const std::string& name : alloc::backend_names()) {
    std::printf("%-18s %s\n", name.c_str(),
                alloc::backend_description(name).c_str());
  }
  std::printf(
      "\nknobbed backends are tuned per sweep/plan request via\n"
      "  \"allocator_config\": {\"<backend>\": {\"<knob>\": <integer>}}\n"
      "(see docs/ALLOCATORS.md for each backend's knob table)\n");
  return 0;
}

int list_estimators() {
  for (const std::string& name : core::estimator_names()) {
    std::printf("%-12s %s\n", name.c_str(),
                core::estimator_description(name).c_str());
  }
  return 0;
}

int list_policies() {
  for (const std::string& name : sched::packing_policy_names()) {
    std::printf("%-20s %s\n", name.c_str(),
                sched::packing_policy_description(name).c_str());
  }
  std::printf(
      "\nselected per fleet request via \"policy\": \"<name>\"\n"
      "(see docs/SCHEDULER.md for packing semantics)\n");
  return 0;
}

/// `estimate`/`verify` flags spelled as a one-entry sweep document, so they
/// are checked by the request field lists with the document's messages.
util::Json estimate_document(const Cli& cli) {
  util::Json job = util::Json::object();
  if (!cli.model.empty()) job["model"] = util::Json(cli.model);
  job["batch"] = util::Json(cli.batch);
  job["optimizer"] = util::Json(cli.optimizer);
  job["placement"] = util::Json(cli.pos0 ? "POS0" : "POS1");
  util::Json document = util::Json::object();
  document["job"] = std::move(job);
  document["devices"] = util::JsonArray{util::Json(cli.device)};
  document["allocators"] = util::JsonArray{util::Json(cli.allocator)};
  document["estimators"] = util::JsonArray{util::Json(cli.estimator)};
  document["profile_iterations"] = util::Json(cli.iterations);
  document["curve"] = util::Json(cli.curve);
  return document;
}

int run_estimate(const Cli& cli, bool verify) {
  const core::EstimateRequest request =
      core::EstimateRequest::from_json(estimate_document(cli));
  const core::TrainJob& job = request.job;
  const gpu::DeviceModel& device = request.devices.front();

  core::ServiceOptions service_options;
  service_options.threads = 1;  // one question, no fan-out
  core::EstimationService service(service_options);
  const core::EstimateEntry entry =
      std::move(service.sweep(request).entries.front());

  if (!entry.supported) {
    std::fprintf(stderr, "estimator %s does not support this job class\n",
                 cli.estimator.c_str());
    return 1;
  }

  std::int64_t truth_peak = -1;
  bool truth_oom = false;
  if (verify) {
    const fw::ModelDescriptor model =
        models::build_model(job.model_name, job.batch_size);
    gpu::GroundTruthRunner runner;
    gpu::GroundTruthOptions gt;
    gt.placement = job.placement;
    gt.seed = job.seed;
    const auto truth = runner.run(model, job.optimizer, device, gt);
    truth_oom = truth.oom;
    truth_peak = truth.oom ? -1 : truth.peak_job_bytes;
  }

  if (cli.json) {
    // One serialization for both JSON surfaces: the entry schema of
    // `xmem sweep` (estimation_service.cpp), plus the CLI's job context.
    util::Json out = entry.to_json(/*include_timings=*/!cli.no_timings);
    out["model"] = util::Json(cli.model);
    out["batch"] = util::Json(cli.batch);
    out["optimizer"] = util::Json(cli.optimizer);
    out["placement"] = util::Json(cli.pos0 ? "POS0" : "POS1");
    if (!cli.no_timings) {
      out["estimator_runtime_seconds"] =
          util::Json(entry.timings.total_seconds);
    }
    if (verify) {
      out["ground_truth_oom"] = util::Json(truth_oom);
      if (!truth_oom) out["ground_truth_peak_bytes"] = util::Json(truth_peak);
    }
    std::printf("%s\n", out.dump(2).c_str());
  } else {
    std::printf("job            : %s\n", job.label().c_str());
    std::printf("estimator      : %s\n", cli.estimator.c_str());
    std::printf("device         : %s (job budget %s)\n", device.name.c_str(),
                util::format_bytes(device.job_budget()).c_str());
    std::printf("estimated peak : %s\n",
                util::format_bytes(entry.estimated_peak).c_str());
    std::printf("verdict        : %s\n",
                entry.oom_predicted ? "DOES NOT FIT (OOM predicted)"
                                    : "fits");
    if (verify) {
      if (truth_oom) {
        std::printf("ground truth   : OOM (prediction %s)\n",
                    entry.oom_predicted ? "correct" : "WRONG");
      } else {
        std::printf("ground truth   : %s (error %.2f%%)\n",
                    util::format_bytes(truth_peak).c_str(),
                    100.0 *
                        std::abs(static_cast<double>(entry.estimated_peak -
                                                     truth_peak)) /
                        static_cast<double>(truth_peak));
      }
    }
    std::printf("stages         : profile %.1f ms, analyze %.1f ms, "
                "simulate %.1f ms (total %.1f ms)\n",
                entry.timings.profile_seconds * 1e3,
                entry.timings.analyze_seconds * 1e3,
                entry.timings.simulate_seconds * 1e3,
                entry.timings.total_seconds * 1e3);
  }
  return entry.oom_predicted ? 2 : 0;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// The one writer of a rendered report: stdout, or `--out FILE`.
int emit_result(const Cli& cli, const std::string& rendered) {
  if (cli.out_file.empty()) {
    std::printf("%s\n", rendered.c_str());
  } else {
    std::ofstream out(cli.out_file);
    if (!out) {
      std::fprintf(stderr, "cannot write: %s\n", cli.out_file.c_str());
      return 1;
    }
    out << rendered << "\n";
  }
  return 0;
}

/// Shared request-file plumbing for the JSON subcommands
/// (`sweep`/`plan`/`fleet`): read + parse the document, hand it to
/// `respond`, emit the report.
int run_request_command(const Cli& cli,
                        util::Json (*respond)(const Cli&, const util::Json&)) {
  if (cli.request_file.empty()) {
    std::fprintf(stderr, "%s requires a REQUEST.json file argument\n",
                 cli.command.c_str());
    return 1;
  }
  std::string text;
  if (!read_file(cli.request_file, text)) {
    std::fprintf(stderr, "cannot open request file: %s\n",
                 cli.request_file.c_str());
    return 1;
  }
  return emit_result(cli, respond(cli, util::Json::parse(text)).dump(2));
}

util::Json respond_sweep(const Cli& cli, const util::Json& document) {
  const core::EstimateRequest request =
      core::EstimateRequest::from_json(document);
  core::ServiceOptions service_options;
  if (cli.serial) service_options.threads = 1;
  core::EstimationService service(service_options);
  return service.sweep(request).to_json(/*include_timings=*/!cli.no_timings);
}

util::Json respond_plan(const Cli& cli, const util::Json& document) {
  core::PlanRequest request = core::PlanRequest::from_json(document);
  // CLI refinement flags override the request document.
  if (cli.no_refine) {
    request.refine_top_k = 0;
    request.refine_all = false;
  } else if (cli.refine_all) {
    request.refine_all = true;
  } else if (cli.refine_top_k >= 0) {
    request.refine_top_k = cli.refine_top_k;
    request.refine_all = false;
  }
  if (cli.comm_overlap) request.comm_overlap = true;
  core::ServiceOptions service_options;
  if (cli.serial) service_options.threads = 1;
  core::EstimationService service(service_options);
  return service.plan(request).to_json(/*include_timings=*/!cli.no_timings);
}

util::Json respond_fleet(const Cli& cli, const util::Json& document) {
  const sched::FleetRequest request = sched::FleetRequest::from_json(document);
  core::ServiceOptions service_options;
  if (cli.serial) service_options.threads = 1;
  core::EstimationService service(service_options);
  return service.fleet(request).to_json(/*include_timings=*/!cli.no_timings);
}

// --- serve ------------------------------------------------------------------

server::Server* g_server = nullptr;  ///< signal handler target

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();  // async-signal-safe
}

int run_serve(const Cli& cli) {
  if (cli.socket_path.empty()) {
    std::fprintf(stderr, "serve requires --socket PATH\n");
    return 1;
  }
  server::ServerConfig config;
  config.socket_path = cli.socket_path;
  config.workers = cli.workers;
  config.max_queue = cli.queue;
  config.service_threads = cli.service_threads;
  config.profile_cache_capacity = cli.profile_cache;
  config.session_quota.max_resident_per_tenant = cli.tenant_quota;
  config.session_quota.reject_over_quota = cli.reject_over_quota;
  config.max_frame_bytes = cli.max_frame;

  server::Server daemon(config);
  daemon.start();
  g_server = &daemon;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  std::printf("xmem serve: listening on %s\n", cli.socket_path.c_str());
  std::fflush(stdout);

  daemon.run();  // blocks on the stop latch, then drains and stops
  g_server = nullptr;
  std::printf("xmem serve: drained and stopped\n");
  return 0;
}

// --- request ----------------------------------------------------------------

/// Put a file's bytes on the wire verbatim (no framing), half-close, and
/// report what came back. Exit 0 only if some reply parsed as ok:true —
/// the CI negative fixture (bad_frame.bin) must exit nonzero while the
/// server survives.
int run_raw_request(const Cli& cli) {
  std::string bytes;
  if (!read_file(cli.raw_file, bytes)) {
    std::fprintf(stderr, "cannot open raw file: %s\n", cli.raw_file.c_str());
    return 1;
  }
  server::Client client(cli.socket_path, cli.timeout_ms);
  if (!client.send_bytes(bytes)) {
    std::fprintf(stderr, "raw send failed\n");
    return 1;
  }
  client.half_close();
  bool saw_ok = false;
  std::string payload;
  while (true) {
    const server::FrameStatus status = client.read_reply(payload);
    if (status != server::FrameStatus::kOk) {
      std::fprintf(stderr, "connection ended: %s\n",
                   server::to_string(status));
      break;
    }
    std::printf("%s\n", payload.c_str());
    try {
      const util::Json reply = util::Json::parse(payload);
      if (reply.is_object() && reply.contains("ok") &&
          reply.at("ok").as_bool()) {
        saw_ok = true;
      }
    } catch (const std::exception&) {
      // Not JSON: still not an ok reply.
    }
  }
  return saw_ok ? 0 : 2;
}

int run_request(const Cli& cli) {
  if (cli.socket_path.empty()) {
    std::fprintf(stderr, "request requires --socket PATH\n");
    return 1;
  }
  const int kinds = (cli.sweep_file.empty() ? 0 : 1) +
                    (cli.plan_file.empty() ? 0 : 1) +
                    (cli.fleet_file.empty() ? 0 : 1) +
                    (cli.raw_file.empty() ? 0 : 1) + (cli.stats ? 1 : 0) +
                    (cli.ping ? 1 : 0) + (cli.shutdown ? 1 : 0);
  if (kinds != 1) {
    std::fprintf(stderr,
                 "request needs exactly one of --sweep/--plan/--fleet/"
                 "--stats/--ping/--shutdown/--raw\n");
    return 1;
  }
  if (!cli.raw_file.empty()) return run_raw_request(cli);

  try {
    server::Client client(cli.socket_path, cli.timeout_ms);
    if (cli.ping) {
      client.ping();
      std::printf("pong\n");
      return 0;
    }
    if (cli.shutdown) {
      client.shutdown_server();
      std::printf("shutdown acknowledged (server draining)\n");
      return 0;
    }
    if (cli.stats) {
      return emit_result(cli, client.stats().dump(2));
    }
    const bool is_plan = !cli.plan_file.empty();
    const bool is_fleet = !cli.fleet_file.empty();
    const std::string& path =
        is_plan ? cli.plan_file : (is_fleet ? cli.fleet_file : cli.sweep_file);
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "cannot open request file: %s\n", path.c_str());
      return 1;
    }
    const util::Json request = util::Json::parse(text);
    // Same rendering as the offline sweep/plan/fleet subcommands with
    // --no-timings (the server always strips timings), so both paths diff
    // against the same golden reports.
    const util::Json report = is_plan    ? client.plan(request, cli.tenant)
                              : is_fleet ? client.fleet(request, cli.tenant)
                                         : client.sweep(request, cli.tenant);
    return emit_result(cli, report.dump(2));
  } catch (const server::RequestError& error) {
    std::fprintf(stderr, "server error: %s\n", error.what());
    return 2;
  } catch (const server::TransportError& error) {
    std::fprintf(stderr, "transport error: %s\n", error.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_args(argc, argv, cli)) return usage();
  try {
    if (cli.command == "models") return list_models();
    if (cli.command == "devices") return list_devices();
    if (cli.command == "backends") return list_backends();
    if (cli.command == "estimators") return list_estimators();
    if (cli.command == "policies") return list_policies();
    if (cli.command == "estimate") return run_estimate(cli, /*verify=*/false);
    if (cli.command == "verify") return run_estimate(cli, /*verify=*/true);
    if (cli.command == "sweep") return run_request_command(cli, respond_sweep);
    if (cli.command == "plan") return run_request_command(cli, respond_plan);
    if (cli.command == "fleet") return run_request_command(cli, respond_fleet);
    if (cli.command == "serve") return run_serve(cli);
    if (cli.command == "request") return run_request(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
