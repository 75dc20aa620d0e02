// Request-document schema tests: the sweep, plan and fleet parsers.
//
//   * every rejection's exact message is pinned — each ci/fixtures/bad_*.json
//     and each field-level rejection across sweep, plan, fleet, job, device,
//     pool, headroom and what_if — because CI's negative smoke checks only
//     exit codes, so a codec rewrite could otherwise drift them silently;
//   * to_json() of every fixture request, and of seeded random requests of
//     every type, emits pinned bytes (the server's coalescing key) and
//     round-trips: to_json(from_json(to_json(r))) == to_json(r);
//   * a wrong-typed value is rejected, never defaulted, and an integer is
//     range-checked before it is narrowed, on the document and C++ paths;
//   * the CLI parses numeric flags strictly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "core/estimation_service.h"
#include "sched/fleet_planner.h"
#include "util/json.h"
#include "util/rng.h"

namespace xmem {
namespace {

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(XMEM_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The message a surface ("sweep" | "plan" | "fleet") rejects `document`
/// with: parse, then validate through the service the way `xmem sweep`,
/// `xmem plan` and `xmem fleet` do. Every pinned rejection fires before any
/// profile runs.
std::string rejection(const std::string& surface, const std::string& document) {
  try {
    const util::Json json = util::Json::parse(document);
    core::ServiceOptions options;
    options.threads = 1;
    core::EstimationService service(options);
    if (surface == "sweep") {
      service.sweep(core::EstimateRequest::from_json(json));
    } else if (surface == "plan") {
      service.plan(core::PlanRequest::from_json(json));
    } else {
      service.fleet(sched::FleetRequest::from_json(json));
    }
  } catch (const std::exception& error) {
    return error.what();
  }
  return "(accepted)";
}

struct Pin {
  const char* surface;
  const char* document;
  const char* message;
};

void expect_pins(const std::vector<Pin>& pins) {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(rejection(pins[i].surface, pins[i].document), pins[i].message)
        << "pin " << i << ": " << pins[i].surface << " " << pins[i].document;
  }
}

// ---------- pinned rejection messages ----------

#define KNOWN_MODELS                                                         \
  "(known: ConvNeXtBase, ConvNeXtTiny, MnasNet, MobileNetV3Large, "         \
  "MobileNetV3Small, MobileNetV2, RegNetX400MF, RegNetY400MF, ResNet101, "  \
  "ResNet152, VGG16, VGG19, Cerebras-GPT-111M, Qwen3-0.6B, T5-small, "      \
  "distilgpt2, gpt-neo-125M, gpt2, opt-125m, opt-350m, pythia-1b, t5-base, " \
  "DeepSeek-R1-Distill-Qwen-1.5B, Llama-3.2-3B-Instruct, Qwen3-4B)"
#define KNOWN_ALLOCATORS                                                    \
  "(known: basic-bfc, cub-binned, pytorch, pytorch-expandable, stream-pool, tf-bfc)"

TEST(RejectionPins, BadFixtures) {
  const std::vector<std::pair<const char*, const char*>> fixtures = {
      {"bad_backend_config.json", "sweep"},
      {"bad_fleet.json", "fleet"},
      {"bad_fleet_model.json", "fleet"},
      {"bad_malformed.json", "sweep"},
      {"bad_missing_field.json", "sweep"},
      {"bad_overlap.json", "plan"},
      {"bad_refine.json", "plan"},
      {"bad_refine_all.json", "plan"},
      {"bad_unknown_estimator.json", "sweep"},
      {"bad_wrapped_int.json", "sweep"},
      {"bad_typed_field.json", "sweep"},
  };
  const std::vector<const char*> messages = {
      "request allocator_config.cub-binned: cub-binned: malformed bin config: max_bin (5) must be >= min_bin (20)",
      "fleet request pools[0]: \"count\" must be >= 1",
      "fleet request jobs[0] job: \"model\" names unknown model 'no-such-model' " KNOWN_MODELS,
      "unexpected end of input at offset 47",
      "request: missing \"devices\"",
      "plan request: \"comm_overlap\" must be a boolean",
      "plan request: \"refine_top_k\" must be >= 0",
      "plan request: \"refine_top_k\" must be an integer >= 0 or the string \"all\" (refine every ranked decomposition)",
      "request: \"estimators[0]\" names unknown estimator 'warp-drive' (known: DNNMem, LLMem, SchedTune, xMem, xMem-noOrch)",
      "request job: \"batch\" must be <= 2147483647",
      "request: \"profile_iterations\" must be an integer",
  };
  ASSERT_EQ(fixtures.size(), messages.size());
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    EXPECT_EQ(rejection(fixtures[i].second, read_fixture(fixtures[i].first)),
              messages[i])
        << fixtures[i].first;
  }
}

#define JOB R"("job": {"model": "distilgpt2", "batch": 5})"
#define DEV R"("devices": ["rtx3060"])"

TEST(RejectionPins, Sweep) {
  expect_pins({
      {"sweep", R"([])", "request: must be an object"},
      {"sweep", R"({)" DEV R"(})", "request: missing \"job\""},
      {"sweep", R"({"job": 5, )" DEV R"(})", "request: \"job\" must be an object"},
      {"sweep", R"({"job": {"batch": 5}, )" DEV R"(})",
       "request job: missing \"model\""},
      {"sweep", R"({"job": {"model": "distilgpt2"}, )" DEV R"(})",
       "request job: missing \"batch\""},
      {"sweep", R"({"job": {"model": "distilgpt2", "batch": -3}, )" DEV R"(})",
       "request job: \"batch\" must be >= 1"},
      {"sweep",
       R"({"job": {"model": "distilgpt2", "batch": 5, "optimizer": "Lion"}, )" DEV
       R"(})",
       "request job: \"optimizer\" names unknown optimizer 'Lion' (known: SGD, Adam, AdamW, RMSprop, Adagrad, Adafactor)"},
      {"sweep",
       R"({"job": {"model": "distilgpt2", "batch": 5, "placement": "POS9"}, )" DEV
       R"(})",
       "request job: \"placement\" names unknown zero_grad placement 'POS9' (known: POS0, POS1)"},
      {"sweep", R"({"job": {"model": "no-such-model", "batch": 5}, )" DEV R"(})",
       "request job: \"model\" names unknown model 'no-such-model' " KNOWN_MODELS},
      {"sweep", R"({)" JOB R"(, "devices": []})",
       "request: \"devices\" must be a non-empty array"},
      {"sweep", R"({)" JOB R"(, "devices": [5]})",
       "request: \"devices[0]\" must be an alias string or an object"},
      {"sweep", R"({)" JOB R"(, "devices": ["rtx9999"]})",
       "request: \"devices[0]\" names unknown device 'rtx9999' (known: rtx3060, rtx4060, a100)"},
      {"sweep", R"({)" JOB R"(, "devices": [{"capacity_bytes": 100}]})",
       "request devices[0]: missing \"name\""},
      {"sweep", R"({)" JOB R"(, "devices": [{"name": "mystery"}]})",
       "request devices[0]: unknown device 'mystery' needs an explicit \"capacity_bytes\""},
      {"sweep",
       R"({)" JOB R"(, "devices": [{"name": "big",
                      "capacity_bytes": 1125899906842625}]})",
       "request devices[0]: \"capacity_bytes\" must be <= 1125899906842624"},
      {"sweep",
       R"({)" JOB R"(, "devices": [{"name": "wrap", "capacity_bytes": 1,
                      "m_init_bytes": 9223372036854775807,
                      "m_fm_bytes": 9223372036854775807}]})",
       "request devices[0]: \"m_init_bytes\" must be <= 1125899906842624"},
      {"sweep",
       R"({)" JOB R"(, "devices": [{"name": "rtx3060",
                      "m_fm_bytes": 1125899906842625}]})",
       "request devices[0]: \"m_fm_bytes\" must be <= 1125899906842624"},
      {"sweep", R"({)" JOB "," DEV R"(, "allocators": ["warp"]})",
       "request: \"allocators[0]\" names unknown allocator 'warp' "
       KNOWN_ALLOCATORS},
      {"sweep", R"({)" JOB "," DEV R"(, "allocators": "pytorch"})",
       "request: \"allocators\" must be an array"},
      {"sweep", R"({)" JOB "," DEV R"(, "estimators": "xMem"})",
       "request: \"estimators\" must be an array"},
      {"sweep", R"({)" JOB "," DEV R"(, "curve": 1})",
       "request: \"curve\" must be a boolean"},
      {"sweep", R"({)" JOB "," DEV R"(, "allocator_config": 5})",
       "request: \"allocator_config\" must be an object"},
      {"sweep", R"({)" JOB "," DEV R"(, "allocator_config": {"pytorch": 5}})",
       "request allocator_config.pytorch: backend knobs must be a JSON object of integer values"},
      {"sweep",
       R"({)" JOB "," DEV
       R"(, "allocator_config": {"cub-binned": {"min_bin": "3"}}})",
       "request allocator_config.cub-binned: knob 'min_bin' must be an integer (byte/count knobs only \xE2\x80\x94 no strings or fractions)"},
      {"sweep",
       R"({)" JOB "," DEV R"(, "allocator_config": {"warp": {"x": 1}}})",
       "request: \"allocator_config\" names unknown allocator 'warp' "
       KNOWN_ALLOCATORS},
  });
}

TEST(RejectionPins, Plan) {
  expect_pins({
      {"plan", R"([])", "plan request: must be an object"},
      {"plan", R"({)" JOB R"(, "devices": []})",
       "plan request: \"devices\" must be a non-empty array"},
      {"plan", R"({)" JOB "," DEV R"(, "max_gpus": 0})",
       "plan request: \"max_gpus\" must be >= 1"},
      {"plan", R"({)" JOB "," DEV R"(, "max_gpus": 1025})",
       "plan request: \"max_gpus\" must be <= 1024"},
      {"plan", R"({)" JOB "," DEV R"(, "max_gpus": 4294967297})",
       "plan request: \"max_gpus\" must be <= 1024"},
      {"plan", R"({)" JOB "," DEV R"(, "micro_batches": 0})",
       "plan request: \"micro_batches\" must be >= 1"},
      {"plan", R"({)" JOB "," DEV R"(, "virtual_stages": 0})",
       "plan request: \"virtual_stages\" must be >= 1"},
      {"plan", R"({)" JOB "," DEV R"(, "schedule": "zigzag"})",
       "plan request: \"schedule\" names unknown pipeline schedule 'zigzag' (known: 1f1b, interleaved)"},
      {"plan", R"({)" JOB "," DEV R"(, "zero_stage": 5})",
       "plan request: \"zero_stage\" must be <= 3"},
      {"plan", R"({)" JOB "," DEV R"(, "ddp_bucket_bytes": -1})",
       "plan request: \"ddp_bucket_bytes\" must be >= 0"},
      {"plan", R"({)" JOB "," DEV R"(, "ddp_bucket_count": -1})",
       "plan request: \"ddp_bucket_count\" must be >= 0"},
      {"plan", R"({)" JOB "," DEV R"(, "activation_replication_pct": 101})",
       "plan request: \"activation_replication_pct\" must be <= 100"},
      {"plan", R"({)" JOB "," DEV R"(, "activation_replication_pct": -1})",
       "plan request: \"activation_replication_pct\" must be >= 0"},
      {"plan", R"({)" JOB "," DEV R"(, "profile_iterations": 0})",
       "plan request: \"profile_iterations\" must be >= 1"},
      {"plan", R"({)" JOB "," DEV R"(, "max_candidates": -1})",
       "plan request: \"max_candidates\" must be >= 0"},
      {"plan", R"({)" JOB "," DEV R"(, "refine_top_k": -1})",
       "plan request: \"refine_top_k\" must be >= 0"},
      {"plan", R"({)" JOB "," DEV R"(, "refine_top_k": "most"})",
       "plan request: \"refine_top_k\" must be an integer >= 0 or the string \"all\" (refine every ranked decomposition)"},
      {"plan", R"({)" JOB "," DEV R"(, "comm_overlap": 1})",
       "plan request: \"comm_overlap\" must be a boolean"},
      {"plan", R"({)" JOB "," DEV R"(, "allocator": "warp"})",
       "plan request: \"allocator\" names unknown allocator 'warp' "
       KNOWN_ALLOCATORS},
      {"plan", R"({)" JOB "," DEV R"(, "allocator_config": []})",
       "plan request: \"allocator_config\" must be an object"},
      {"plan", R"({"job": {"model": "no-such-model", "batch": 5}, )" DEV R"(})",
       "plan request job: \"model\" names unknown model 'no-such-model' " KNOWN_MODELS},
  });
}

#define JOBS R"("jobs": [{"job": {"model": "distilgpt2", "batch": 5}}])"
#define POOLS R"("pools": [{"device": "rtx3060", "count": 1}])"

TEST(RejectionPins, Fleet) {
  expect_pins({
      {"fleet", R"([])", "fleet request: must be an object"},
      {"fleet", R"({)" POOLS R"(})",
       "fleet request: missing \"jobs\""},
      {"fleet", R"({"jobs": [], )" POOLS R"(})",
       "fleet request: \"jobs\" must be a non-empty array"},
      {"fleet", R"({"jobs": {}, )" POOLS R"(})",
       "fleet request: \"jobs\" must be a non-empty array"},
      {"fleet", R"({)" JOBS R"(})",
       "fleet request: missing \"pools\""},
      {"fleet", R"({)" JOBS R"(, "pools": []})",
       "fleet request: \"pools\" must be a non-empty array"},
      {"fleet", R"({"jobs": [5], )" POOLS R"(})",
       "fleet request: \"jobs[0]\" must be an object"},
      {"fleet", R"({"jobs": [{"id": "a"}], )" POOLS R"(})",
       "fleet request jobs[0]: missing \"job\""},
      {"fleet", R"({"jobs": [{"job": {"batch": 5}}], )" POOLS R"(})",
       "fleet request jobs[0] job: missing \"model\""},
      {"fleet",
       R"({"jobs": [{"job": {"model": "distilgpt2", "batch": 0}}], )" POOLS
       R"(})",
       "fleet request jobs[0] job: \"batch\" must be >= 1"},
      {"fleet",
       R"({"jobs": [{"id": "a", "job": {"model": "distilgpt2", "batch": 5}},
                    {"id": "a", "job": {"model": "gpt2", "batch": 5}}], )" POOLS
       R"(})",
       "fleet request: duplicate job id 'a'"},
      {"fleet", R"({)" JOBS R"(, "pools": [5]})",
       "fleet request: \"pools[0]\" must be an object"},
      {"fleet", R"({)" JOBS R"(, "pools": [{"count": 1}]})",
       "fleet request pools[0]: missing \"device\""},
      {"fleet", R"({)" JOBS R"(, "pools": [{"device": "rtx3060"}]})",
       "fleet request pools[0]: missing \"count\""},
      {"fleet", R"({)" JOBS R"(, "pools": [{"device": "rtx9999", "count": 1}]})",
       "fleet request pools[0]: \"device\" names unknown device 'rtx9999' (known: rtx3060, rtx4060, a100)"},
      {"fleet",
       R"({)" JOBS R"(, "pools": [{"device": {"name": "tiny",
                  "capacity_bytes": 100, "m_init_bytes": 200}, "count": 1}]})",
       "fleet request: device 'tiny' has a non-positive job budget"},
      {"fleet",
       R"({)" JOBS R"(, "pools": [{"device": {"name": "edge",
                  "capacity_bytes": 1, "m_init_bytes": 1125899906842624,
                  "m_fm_bytes": 1125899906842624}, "count": 1}]})",
       "fleet request: device 'edge' has a non-positive job budget"},
      {"fleet",
       R"({)" JOBS R"(, "pools": [{"device": {"name": "edge",
                  "capacity_bytes": 1, "m_fm_bytes": 1125899906842625},
                  "count": 1}]})",
       "fleet request pools[0] device: \"m_fm_bytes\" must be <= "
       "1125899906842624"},
      {"fleet",
       R"({)" JOBS R"(, "pools": [{"device": "rtx3060", "count": 1},
                  {"device": {"name": "GeForce RTX 3060",
                              "capacity_bytes": 20000000000},
                   "count": 1}]})",
       "fleet request: device name 'GeForce RTX 3060' appears with conflicting geometry"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "headroom": 5})",
       "fleet request: \"headroom\" must be an object"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "headroom": {"absolute_bytes": -1}})",
       "fleet request headroom: \"absolute_bytes\" must be >= 0"},
      {"fleet",
       R"({)" JOBS "," POOLS
       R"(, "headroom": {"absolute_bytes": 1125899906842625}})",
       "fleet request headroom: \"absolute_bytes\" must be <= "
       "1125899906842624"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "headroom": {"percent": -1}})",
       "fleet request headroom: \"percent\" must be >= 0"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "headroom": {"percent": 1001}})",
       "fleet request headroom: \"percent\" must be <= 1000"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "headroom": {"per_device": 5}})",
       "fleet request headroom: \"per_device\" must be an object"},
      {"fleet",
       R"({)" JOBS "," POOLS R"(, "headroom": {"per_device": {"rtx3060": 5}}})",
       "fleet request headroom: \"per_device.rtx3060\" must be an object"},
      {"fleet",
       R"({)" JOBS "," POOLS
       R"(, "headroom": {"per_device": {"rtx3060": {"percent": -1}}}})",
       "fleet request headroom per_device.rtx3060: \"percent\" must be >= 0"},
      {"fleet",
       R"({)" JOBS "," POOLS
       R"(, "headroom": {"per_device": {"rtx3060": {"percent": 1001}}}})",
       "fleet request headroom per_device.rtx3060: \"percent\" must be <= "
       "1000"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "what_if": 5})",
       "fleet request: \"what_if\" must be an array"},
      {"fleet",
       R"({)" JOBS "," POOLS R"(, "what_if": [{"device": "a100", "count": 0}]})",
       "fleet request what_if[0]: \"count\" must be >= 1"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "comm_overlap": "yes"})",
       "fleet request: \"comm_overlap\" must be a boolean"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "refine_all": 1})",
       "fleet request: \"refine_all\" must be a boolean"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "estimator": "warp"})",
       "fleet request: \"estimator\" names unknown estimator 'warp' (known: DNNMem, LLMem, SchedTune, xMem, xMem-noOrch)"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "policy": "warp"})",
       "fleet request: \"policy\" names unknown packing policy 'warp' (known: best-fit-decreasing, first-fit, whole-gpu)"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "allocator": "warp"})",
       "fleet request: \"allocator\" names unknown allocator 'warp' "
       KNOWN_ALLOCATORS},
      {"fleet", R"({)" JOBS "," POOLS R"(, "allocator_config": 5})",
       "fleet request: \"allocator_config\" must be an object"},
      {"fleet",
       R"({)" JOBS "," POOLS R"(, "allocator_config": {"warp": {"x": 1}}})",
       "fleet request: \"allocator_config\" names unknown allocator 'warp' "
       KNOWN_ALLOCATORS},
      {"fleet", R"({)" JOBS "," POOLS R"(, "profile_iterations": 0})",
       "fleet request: \"profile_iterations\" must be >= 1"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "max_gpus_per_job": 0})",
       "fleet request: \"max_gpus_per_job\" must be >= 1"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "max_gpus_per_job": 1025})",
       "fleet request: \"max_gpus_per_job\" must be <= 1024"},
  });
}

// ---------- wrong types and wide integers ----------

TEST(RequestTypes, WrongTypedValuesAreRejectedNotDefaulted) {
  // One field per JSON type a request field can expect.
  expect_pins({
      {"sweep",
       R"({"job": {"model": "distilgpt2", "batch": "5"}, )" DEV R"(})",
       "request job: \"batch\" must be an integer"},
      {"sweep", R"({"job": {"model": "distilgpt2", "batch": 5.0}, )" DEV R"(})",
       "request job: \"batch\" must be an integer"},
      {"sweep", R"({"job": {"model": 7, "batch": 5}, )" DEV R"(})",
       "request job: \"model\" must be a string"},
      {"sweep", R"({)" JOB "," DEV R"(, "curve": "true"})",
       "request: \"curve\" must be a boolean"},
      {"sweep", R"({)" JOB "," DEV R"(, "estimators": {"xMem": 1}})",
       "request: \"estimators\" must be an array"},
      {"sweep", R"({)" JOB "," DEV R"(, "allocators": ["pytorch", 5]})",
       "request: \"allocators[1]\" must be a string"},
      {"sweep", R"({"job": [], )" DEV R"(})",
       "request: \"job\" must be an object"},
      {"sweep", R"({)" JOB "," DEV R"(, "tenant": 3})",
       "request: \"tenant\" must be a string"},
      {"plan", R"({)" JOB "," DEV R"(, "max_gpus": "2"})",
       "plan request: \"max_gpus\" must be an integer"},
      {"plan", R"({)" JOB "," DEV R"(, "allocator": 5})",
       "plan request: \"allocator\" must be a string"},
      {"plan", R"({)" JOB "," DEV R"(, "schedule": 1})",
       "plan request: \"schedule\" must be a string"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "policy": ["first-fit"]})",
       "fleet request: \"policy\" must be a string"},
      {"fleet",
       R"({"jobs": [{"id": 7, "job": {"model": "distilgpt2", "batch": 5}}], )"
       POOLS R"(})",
       "fleet request jobs[0]: \"id\" must be a string"},
      {"fleet",
       R"({)" JOBS R"(, "pools": [{"device": "rtx3060", "count": "2"}]})",
       "fleet request pools[0]: \"count\" must be an integer"},
      {"fleet",
       R"({)" JOBS R"(, "pools": [{"device": {"name": "rtx3060",
                  "m_init_bytes": "1"}, "count": 2}]})",
       "fleet request pools[0] device: \"m_init_bytes\" must be an integer"},
  });
}

TEST(RequestTypes, IntegersAreRangeCheckedBeforeNarrowing) {
  expect_pins({
      {"sweep",
       R"({"job": {"model": "distilgpt2", "batch": 4294967300}, )" DEV R"(})",
       "request job: \"batch\" must be <= 2147483647"},
      {"sweep", R"({)" JOB "," DEV R"(, "profile_iterations": 0})",
       "request: \"profile_iterations\" must be >= 1"},
      {"plan",
       R"({)" JOB "," DEV R"(, "activation_replication_pct": 4294967346})",
       "plan request: \"activation_replication_pct\" must be <= 100"},
      {"plan", R"({)" JOB "," DEV R"(, "zero_stage": 4294967297})",
       "plan request: \"zero_stage\" must be <= 3"},
      {"fleet",
       R"({"jobs": [{"priority": 4294967297,
                     "job": {"model": "distilgpt2", "batch": 5}}], )" POOLS
       R"(})",
       "fleet request jobs[0]: \"priority\" must be <= 2147483647"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "max_gpus_per_job": 4294967297})",
       "fleet request: \"max_gpus_per_job\" must be <= 1024"},
      {"fleet", R"({)" JOBS "," POOLS R"(, "headroom": {"percent": 4294967296}})",
       "fleet request headroom: \"percent\" must be <= 1000"},
  });
}

TEST(RequestTypes, SeedAcceptsAnyJsonInteger) {
  // Derived uint64 seeds emit as negative int64 and must read back.
  for (const std::int64_t seed : {std::int64_t{-1},
                                  std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max()}) {
    const std::string document =
        R"({"job": {"model": "distilgpt2", "batch": 5, "seed": )" +
        std::to_string(seed) + R"(}, "devices": ["rtx3060"]})";
    const core::EstimateRequest request =
        core::EstimateRequest::from_json(util::Json::parse(document));
    EXPECT_EQ(request.job.seed, static_cast<std::uint64_t>(seed));
    EXPECT_EQ(request.to_json().at("job").at("seed").as_int(), seed);
  }
}

TEST(RequestTypes, CxxFleetRequestsGetTheDocumentMessages) {
  // FleetPlanner::validate checks a C++-built request with the same field
  // list as the JSON path, so both report a bad value the same way.
  const auto pack_error = [](const sched::FleetRequest& request) {
    core::ServiceOptions options;
    options.threads = 1;
    core::EstimationService service(options);
    try {
      service.fleet(request);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("(accepted)");
  };
  sched::FleetRequest request;
  request.jobs.resize(1);
  request.jobs[0].id = "a";
  request.jobs[0].job.model_name = "distilgpt2";
  request.jobs[0].job.batch_size = 5;
  request.pools = {{gpu::rtx3060(), 1}};
  request.max_gpus_per_job = 0;
  EXPECT_EQ(pack_error(request),
            "fleet request: \"max_gpus_per_job\" must be >= 1");
  request.max_gpus_per_job = 1;
  request.headroom.per_device["GeForce RTX 3060"].percent = -5;
  EXPECT_EQ(pack_error(request),
            "fleet request headroom per_device.GeForce RTX 3060: \"percent\" "
            "must be >= 0");
  request.headroom.per_device.clear();
  request.what_if = {{gpu::a100_40gb(), 0}};
  EXPECT_EQ(pack_error(request),
            "fleet request what_if[0]: \"count\" must be >= 1");
}

TEST(RequestTypes, CxxSweepsCheckProfileIterationsBeforeProfiling) {
  // sweep, estimate (the `xmem estimate` path) and plan reject a C++-built
  // request's profile_iterations with the document's message, before the
  // Analyzer could fail on a profile with no iterations.
  core::ServiceOptions options;
  options.threads = 1;
  core::EstimationService service(options);
  const auto error_of = [](const auto& call) {
    try {
      call();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("(accepted)");
  };
  core::EstimateRequest request;
  request.job.model_name = "distilgpt2";
  request.job.batch_size = 2;
  request.devices = {gpu::rtx3060()};
  request.profile_iterations = 0;
  EXPECT_EQ(error_of([&] { service.sweep(request); }),
            "request: \"profile_iterations\" must be >= 1");
  EXPECT_EQ(error_of([&] {
              service.estimate("xMem", request.job, gpu::rtx3060(),
                               alloc::kDefaultBackendName, -1);
            }),
            "request: \"profile_iterations\" must be >= 1");
  core::PlanRequest plan;
  plan.job = request.job;
  plan.devices = request.devices;
  plan.profile_iterations = 0;
  EXPECT_EQ(error_of([&] { service.plan(plan); }),
            "plan request: \"profile_iterations\" must be >= 1");
  EXPECT_EQ(service.session().misses(), 0u);
}

TEST(RequestTypes, CxxPlansGetTheDocumentMessages) {
  // plan() checks a C++-built request with the document's field list, so
  // values the document path rejects never reach the search (max_gpus = 0
  // used to answer with zero candidates, the others with thirteen).
  core::ServiceOptions options;
  options.threads = 1;
  core::EstimationService service(options);
  const auto plan_error = [&service](const core::PlanRequest& request) {
    try {
      service.plan(request);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("(accepted)");
  };
  core::PlanRequest base;
  base.job.model_name = "distilgpt2";
  base.job.batch_size = 5;
  base.devices = {gpu::rtx3060()};
  const std::vector<std::pair<std::function<void(core::PlanRequest&)>,
                              std::string>>
      cases = {
          {[](core::PlanRequest& r) { r.max_gpus = 0; },
           R"({)" JOB "," DEV R"(, "max_gpus": 0})"},
          {[](core::PlanRequest& r) { r.micro_batches = 0; },
           R"({)" JOB "," DEV R"(, "micro_batches": 0})"},
          {[](core::PlanRequest& r) { r.activation_replication_pct = 500; },
           R"({)" JOB "," DEV R"(, "activation_replication_pct": 500})"},
          {[](core::PlanRequest& r) { r.refine_top_k = -1; },
           R"({)" JOB "," DEV R"(, "refine_top_k": -1})"},
      };
  for (const auto& [mutate, document] : cases) {
    core::PlanRequest request = base;
    mutate(request);
    const std::string message = rejection("plan", document);
    EXPECT_NE(message, "(accepted)") << document;
    EXPECT_EQ(plan_error(request), message) << document;
  }
  EXPECT_EQ(service.session().misses(), 0u);
}

// ---------- CLI numeric flags ----------

/// Run the CLI with `args`; returns its exit status, stderr in `err`.
int run_cli(const std::string& args, std::string& err) {
  const std::string command =
      std::string(XMEM_CLI) + " " + args + " 2>&1 >/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  err.clear();
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) err += buffer;
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliFlags, NumericFlagsAreParsedStrictly) {
  // Each bad value fails in argument parsing, before any command runs:
  // `serve` gets no --socket, so no daemon could start even if it passed.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"estimate --model gpt2 --batch 8x", "--batch"},
      {"estimate --model gpt2 --batch 4294967300", "--batch"},
      {"estimate --model gpt2 --batch 10 --iterations -3", "--iterations"},
      {"serve --workers -1", "--workers"},
      {"serve --service-threads -1", "--service-threads"},
      {"serve --queue 99999999999999999999999", "--queue"},
      {"serve --profile-cache ' 4'", "--profile-cache"},
      {"serve --max-frame +16", "--max-frame"},
      {"request --ping --timeout 1e3", "--timeout"},
      {"plan req.json --refine-top-k -1", "--refine-top-k"},
  };
  for (const auto& [args, flag] : bad) {
    std::string err;
    EXPECT_EQ(run_cli(args, err), 1) << args;
    EXPECT_NE(err.find(flag + ": expects an integer in 0.."),
              std::string::npos)
        << args << "\n" << err;
  }
  std::string err;
  EXPECT_EQ(run_cli("estimate --model distilgpt2 --batch 2 --iterations 2",
                    err),
            0)
      << err;
}

TEST(CliFlags, ZeroIterationsAreRejectedBeforeProfiling) {
  std::string err;
  EXPECT_EQ(run_cli("estimate --model gpt2 --batch 2 --iterations 0", err), 1);
  EXPECT_EQ(err, "error: request: \"profile_iterations\" must be >= 1\n");
}

// ---------- pinned request bytes ----------

TEST(RequestBytes, FixtureRequestsEmitPinnedBytes) {
  const util::Json sweep =
      util::Json::parse(read_fixture("sweep_request.json"));
  const util::Json plan = util::Json::parse(read_fixture("plan_request.json"));
  const util::Json overlap =
      util::Json::parse(read_fixture("plan_request_overlap.json"));
  const util::Json fleet =
      util::Json::parse(read_fixture("fleet_request.json"));
  EXPECT_EQ(core::EstimateRequest::from_json(sweep).to_json().dump(),
            R"({"allocator_config":{"cub-binned":{"bin_growth":4,"max_bin":12,"max_cached_bytes":200000000,"min_bin":3},"pytorch-expandable":{"max_split_size_bytes":8388608},"stream-pool":{"chunk_bytes":8388608,"release_threshold_bytes":0}},"allocators":["pytorch","tf-bfc","basic-bfc","cub-binned","stream-pool","pytorch-expandable"],"curve":false,"devices":[{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"},{"capacity_bytes":8589934592,"m_fm_bytes":612368384,"m_init_bytes":278921216,"name":"GeForce RTX 4060"},{"capacity_bytes":42949672960,"m_fm_bytes":692060160,"m_init_bytes":440401920,"name":"NVIDIA A100 40GB"},{"capacity_bytes":25769803776,"m_fm_bytes":629145600,"m_init_bytes":314572800,"name":"Custom-24GB"}],"estimators":["xMem","DNNMem","LLMem"],"job":{"batch":5,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"profile_iterations":3})");
  EXPECT_EQ(core::PlanRequest::from_json(plan).to_json().dump(),
            R"({"activation_replication_pct":25,"allocator":"pytorch","ddp_bucket_bytes":26214400,"ddp_bucket_count":2,"devices":[{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"},{"capacity_bytes":8589934592,"m_fm_bytes":612368384,"m_init_bytes":278921216,"name":"GeForce RTX 4060"},{"capacity_bytes":42949672960,"m_fm_bytes":692060160,"m_init_bytes":440401920,"name":"NVIDIA A100 40GB"},{"capacity_bytes":2000000000,"m_fm_bytes":0,"m_init_bytes":0,"name":"whatif-2g"}],"job":{"batch":5,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"max_candidates":6,"max_gpus":8,"micro_batches":4,"profile_iterations":3,"refine_top_k":3,"schedule":"1f1b","virtual_stages":1,"zero_stage":1})");
  EXPECT_EQ(core::PlanRequest::from_json(overlap).to_json().dump(),
            R"({"activation_replication_pct":25,"allocator":"pytorch","comm_overlap":true,"ddp_bucket_bytes":26214400,"ddp_bucket_count":2,"devices":[{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"},{"capacity_bytes":8589934592,"m_fm_bytes":612368384,"m_init_bytes":278921216,"name":"GeForce RTX 4060"},{"capacity_bytes":42949672960,"m_fm_bytes":692060160,"m_init_bytes":440401920,"name":"NVIDIA A100 40GB"},{"capacity_bytes":2000000000,"m_fm_bytes":0,"m_init_bytes":0,"name":"whatif-2g"}],"job":{"batch":5,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"max_candidates":6,"max_gpus":8,"micro_batches":4,"profile_iterations":3,"refine_top_k":3,"schedule":"1f1b","virtual_stages":1,"zero_stage":1})");
  EXPECT_EQ(sched::FleetRequest::from_json(fleet).to_json().dump(),
            R"({"allocator":"pytorch","estimator":"xMem","headroom":{"absolute_bytes":0,"percent":5},"jobs":[{"id":"llm-a","job":{"batch":10,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"priority":1},{"id":"llm-b","job":{"batch":10,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"priority":0},{"id":"llm-c","job":{"batch":10,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"priority":0},{"id":"cnn-a","job":{"batch":300,"model":"MobileNetV2","optimizer":"SGD","placement":"POS1","seed":7},"priority":0},{"id":"cnn-b","job":{"batch":300,"model":"MobileNetV2","optimizer":"SGD","placement":"POS1","seed":7},"priority":0},{"id":"cnn-c","job":{"batch":300,"model":"MobileNetV2","optimizer":"SGD","placement":"POS1","seed":7},"priority":0}],"max_gpus_per_job":1,"policy":"best-fit-decreasing","pools":[{"count":1,"device":{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"}}],"profile_iterations":3,"what_if":[{"count":2,"device":{"capacity_bytes":8589934592,"m_fm_bytes":612368384,"m_init_bytes":278921216,"name":"GeForce RTX 4060"}}]})");
}

// Seeded random requests of every type, spanning every field (full-range
// seeds, which emit as negative integers, custom devices, knobs, per-device
// headroom, what-if pools, the omitted-when-default fields).

template <typename T>
const T& pick(util::Rng& rng, const std::vector<T>& values) {
  return values[rng.next_below(values.size())];
}

core::TrainJob random_job(util::Rng& rng) {
  core::TrainJob job;
  job.model_name =
      pick<std::string>(rng, {"distilgpt2", "gpt2", "MobileNetV2"});
  job.batch_size = static_cast<int>(rng.next_in_range(1, 512));
  job.optimizer = pick<fw::OptimizerKind>(
      rng, {fw::OptimizerKind::kSgd, fw::OptimizerKind::kAdam,
            fw::OptimizerKind::kAdamW, fw::OptimizerKind::kAdafactor});
  job.placement = rng.next_bool(0.5)
                      ? fw::ZeroGradPlacement::kPos0BeforeBackward
                      : fw::ZeroGradPlacement::kPos1IterStart;
  job.seed = rng.next_u64();
  return job;
}

gpu::DeviceModel random_device(util::Rng& rng) {
  if (rng.next_bool(0.6)) {
    return gpu::device_by_name(pick<std::string>(rng, {"rtx3060", "a100"}));
  }
  gpu::DeviceModel device;
  device.name = "custom-" + std::to_string(rng.next_below(4));
  device.capacity = rng.next_in_range(std::int64_t{1} << 30,
                                      std::int64_t{80} << 30);
  device.m_init = rng.next_in_range(0, std::int64_t{1} << 29);
  device.m_fm = rng.next_in_range(0, std::int64_t{1} << 29);
  return device;
}

std::map<std::string, alloc::BackendKnobs> random_config(util::Rng& rng) {
  std::map<std::string, alloc::BackendKnobs> config;
  if (rng.next_bool(0.5)) {
    config["cub-binned"] = {{"min_bin", rng.next_in_range(1, 4)},
                            {"max_bin", rng.next_in_range(8, 20)}};
  }
  if (rng.next_bool(0.3)) {
    config["stream-pool"] = {{"chunk_bytes", rng.next_in_range(1, 1 << 24)}};
  }
  return config;
}

std::string random_tenant(util::Rng& rng) {
  return rng.next_bool(0.5) ? "" : "team-" + std::to_string(rng.next_below(9));
}

core::EstimateRequest random_sweep(util::Rng& rng) {
  core::EstimateRequest request;
  request.job = random_job(rng);
  request.devices.resize(rng.next_in_range(1, 3));
  for (gpu::DeviceModel& device : request.devices) device = random_device(rng);
  request.allocators.clear();
  for (std::uint64_t n = rng.next_below(3); n > 0; --n) {
    request.allocators.push_back(
        pick<std::string>(rng, {"pytorch", "tf-bfc", "cub-binned"}));
  }
  request.estimators = {pick<std::string>(rng, {"xMem", "DNNMem", "LLMem"})};
  request.allocator_config = random_config(rng);
  request.profile_iterations = static_cast<int>(rng.next_in_range(1, 6));
  request.record_curve = rng.next_bool(0.5);
  request.tenant = random_tenant(rng);
  return request;
}

core::PlanRequest random_plan(util::Rng& rng) {
  core::PlanRequest request;
  request.job = random_job(rng);
  request.devices = {random_device(rng)};
  request.max_gpus = static_cast<int>(rng.next_in_range(1, 64));
  request.micro_batches = static_cast<int>(rng.next_in_range(1, 16));
  request.schedule = rng.next_bool(0.5) ? core::PipelineSchedule::kOneFOneB
                                        : core::PipelineSchedule::kInterleaved;
  request.virtual_stages = static_cast<int>(rng.next_in_range(1, 4));
  request.zero = core::zero_stage_from_int(
      static_cast<int>(rng.next_in_range(0, 3)));
  request.ddp_bucket_bytes = rng.next_in_range(0, std::int64_t{1} << 40);
  request.ddp_bucket_count = static_cast<int>(rng.next_in_range(0, 8));
  request.activation_replication_pct =
      static_cast<int>(rng.next_in_range(0, 100));
  request.allocator = pick<std::string>(rng, {"pytorch", "tf-bfc"});
  request.allocator_config = random_config(rng);
  request.profile_iterations = static_cast<int>(rng.next_in_range(1, 6));
  request.max_candidates = rng.next_below(20);
  request.refine_top_k = static_cast<int>(rng.next_in_range(0, 8));
  request.refine_all = rng.next_bool(0.3);
  request.comm_overlap = rng.next_bool(0.3);
  request.tenant = random_tenant(rng);
  return request;
}

sched::GpuPool random_pool(util::Rng& rng) {
  return {random_device(rng), static_cast<int>(rng.next_in_range(1, 16))};
}

sched::HeadroomRule random_rule(util::Rng& rng) {
  return {rng.next_in_range(0, std::int64_t{1} << 32),
          static_cast<int>(rng.next_in_range(0, 50))};
}

sched::FleetRequest random_fleet(util::Rng& rng) {
  sched::FleetRequest request;
  request.jobs.resize(rng.next_in_range(1, 4));
  for (std::size_t i = 0; i < request.jobs.size(); ++i) {
    request.jobs[i].id = "j" + std::to_string(i);
    request.jobs[i].job = random_job(rng);
    request.jobs[i].priority = static_cast<int>(rng.next_in_range(-5, 5));
  }
  request.pools.resize(rng.next_in_range(1, 3));
  for (sched::GpuPool& pool : request.pools) pool = random_pool(rng);
  request.policy = pick<std::string>(
      rng, {"first-fit", "best-fit-decreasing", "whole-gpu"});
  request.headroom.base = random_rule(rng);
  if (rng.next_bool(0.4)) {
    request.headroom.per_device["GeForce RTX 3060"] = random_rule(rng);
  }
  request.estimator = pick<std::string>(rng, {"xMem", "DNNMem"});
  request.allocator = pick<std::string>(rng, {"pytorch", "tf-bfc"});
  request.allocator_config = random_config(rng);
  request.profile_iterations = static_cast<int>(rng.next_in_range(1, 6));
  request.max_gpus_per_job = static_cast<int>(rng.next_in_range(1, 16));
  request.comm_overlap = rng.next_bool(0.3);
  request.refine_all = rng.next_bool(0.3);
  request.tenant = random_tenant(rng);
  for (std::uint64_t n = rng.next_below(3); n > 0; --n) {
    request.what_if.push_back(random_pool(rng));
  }
  return request;
}

/// FNV-1a 64 over the emitted bytes of 200 seeded requests, checking each
/// one round-trips on the way.
template <typename Request, typename Make>
std::uint64_t emitted_digest(std::uint64_t seed, Make make) {
  util::Rng rng(seed);
  std::uint64_t hash = 1469598103934665603ULL;
  for (int i = 0; i < 200; ++i) {
    const std::string bytes = make(rng).to_json().dump();
    EXPECT_EQ(Request::from_json(util::Json::parse(bytes)).to_json().dump(),
              bytes);
    for (const char c : bytes) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
  }
  return hash;
}

TEST(RequestBytes, SeededRequestsRoundTripToPinnedBytes) {
  EXPECT_EQ(emitted_digest<core::EstimateRequest>(11, random_sweep),
            187400112473775831ULL);
  EXPECT_EQ(emitted_digest<core::PlanRequest>(12, random_plan),
            14158459150824673643ULL);
  EXPECT_EQ(emitted_digest<sched::FleetRequest>(13, random_fleet),
            13010776703086428752ULL);
}

}  // namespace
}  // namespace xmem
