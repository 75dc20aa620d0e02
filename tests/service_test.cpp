// EstimationService tests: the profile-once/estimate-many contract.
//
//   * request/report JSON schema round-trips (the `xmem sweep` interface);
//   * a sweep over N devices x M allocators runs exactly ONE CPU profile
//     and ONE replay per allocator (stage counters prove it), every entry
//     matches an independent per-device replay, and the concurrent path
//     returns byte-identical reports to the serial path;
//   * "xMem"/"xMem-noOrch" entries equal one replay of their profile key;
//   * supports() gates execution: an unsupported job yields a
//     supported=false result and compute() is never invoked;
//   * the ProfileSession LRU is bounded and deduplicates in-flight work;
//   * the result cache (the old EvalHarness estimate cache) serves repeats.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "alloc/backend_registry.h"
#include "core/estimation_service.h"
#include "core/profile_session.h"
#include "core/simulator.h"
#include "util/bytes.h"
#include "util/json.h"

namespace xmem {
namespace {

core::TrainJob small_job() {
  core::TrainJob job;
  job.model_name = "distilgpt2";
  job.batch_size = 5;
  job.optimizer = fw::OptimizerKind::kAdamW;
  job.seed = 7;
  return job;
}

core::EstimateRequest sweep_request() {
  core::EstimateRequest request;
  request.job = small_job();
  request.devices = {gpu::rtx3060(), gpu::rtx4060(), gpu::a100_40gb()};
  request.allocators = {"pytorch", "tf-bfc"};
  request.estimators = {"xMem"};
  return request;
}

// ---------- request / report JSON schema ----------

TEST(EstimateRequestJson, RoundTripsThroughJson) {
  core::EstimateRequest request = sweep_request();
  const util::Json json = request.to_json();
  const core::EstimateRequest parsed = core::EstimateRequest::from_json(json);
  EXPECT_EQ(parsed.job.model_name, request.job.model_name);
  EXPECT_EQ(parsed.job.batch_size, request.job.batch_size);
  EXPECT_EQ(parsed.job.optimizer, request.job.optimizer);
  EXPECT_EQ(parsed.job.placement, request.job.placement);
  EXPECT_EQ(parsed.job.seed, request.job.seed);
  ASSERT_EQ(parsed.devices.size(), 3u);
  EXPECT_EQ(parsed.devices[2].name, "NVIDIA A100 40GB");
  EXPECT_EQ(parsed.allocators, request.allocators);
  EXPECT_EQ(parsed.estimators, request.estimators);
}

TEST(EstimateRequestJson, AcceptsAliasesAndCustomDevices) {
  const char* text = R"({
    "job": {"model": "distilgpt2", "batch": 5, "optimizer": "AdamW"},
    "devices": ["rtx3060",
                {"name": "H100-96GB", "capacity_bytes": 103079215104,
                 "m_init_bytes": 440401920, "m_fm_bytes": 692060160}],
    "allocators": ["pytorch"]
  })";
  const core::EstimateRequest request =
      core::EstimateRequest::from_json(util::Json::parse(text));
  ASSERT_EQ(request.devices.size(), 2u);
  EXPECT_EQ(request.devices[0].name, "GeForce RTX 3060");
  EXPECT_EQ(request.devices[1].name, "H100-96GB");
  EXPECT_EQ(request.devices[1].capacity, std::int64_t{103079215104});
  // Defaults apply where the document is silent.
  EXPECT_EQ(request.estimators, std::vector<std::string>{"xMem"});
  EXPECT_EQ(request.job.placement, fw::ZeroGradPlacement::kPos1IterStart);
}

TEST(EstimateRequestJson, PartialDeviceOverridesKeepReferenceGeometry) {
  // A what-if override of one field (extra framework headroom) must start
  // from the named card's real geometry, not silently discard the rest.
  const char* text = R"({
    "job": {"model": "distilgpt2", "batch": 5},
    "devices": [{"name": "rtx3060", "m_init_bytes": 1073741824}]
  })";
  const core::EstimateRequest request =
      core::EstimateRequest::from_json(util::Json::parse(text));
  ASSERT_EQ(request.devices.size(), 1u);
  EXPECT_EQ(request.devices[0].capacity, gpu::rtx3060().capacity);
  EXPECT_EQ(request.devices[0].m_init, std::int64_t{1} << 30);
  EXPECT_EQ(request.devices[0].m_fm, gpu::rtx3060().m_fm);

  // Unknown names need explicit capacity.
  EXPECT_THROW(core::EstimateRequest::from_json(util::Json::parse(R"({
    "job": {"model": "distilgpt2", "batch": 5},
    "devices": [{"name": "mystery-card", "m_init_bytes": 1}]
  })")),
               std::invalid_argument);
}

TEST(EstimateRequestJson, RejectsMalformedDocuments) {
  EXPECT_THROW(core::EstimateRequest::from_json(
                   util::Json::parse(R"({"devices": ["rtx3060"]})")),
               std::exception);  // missing job
  EXPECT_THROW(
      core::EstimateRequest::from_json(util::Json::parse(
          R"({"job": {"model": "distilgpt2", "batch": 5}})")),
      std::invalid_argument);  // missing devices
  EXPECT_THROW(
      core::EstimateRequest::from_json(util::Json::parse(
          R"({"job": {"model": "distilgpt2"}, "devices": ["rtx3060"]})")),
      std::invalid_argument);  // batch <= 0
  EXPECT_THROW(
      core::EstimateRequest::from_json(util::Json::parse(
          R"({"job": {"model": "m", "batch": 1}, "devices": ["warp9"]})")),
      std::invalid_argument);  // unknown device alias
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(XMEM_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing ci/fixtures/" << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(EstimateRequestJson, BadFixtureMalformedJsonFailsWithOffset) {
  // The CI negative-smoke fixtures are asserted here too, so the files and
  // the behavior they pin cannot drift apart. Truncated JSON must fail in
  // the parser with the offending offset, not limp into the service.
  const std::string text = read_fixture("bad_malformed.json");
  try {
    util::Json::parse(text);
    FAIL() << "parser accepted truncated JSON";
  } catch (const util::JsonParseError& error) {
    EXPECT_NE(std::string(error.what()).find("offset"), std::string::npos);
  }
}

TEST(EstimateRequestJson, BadFixtureMissingDevicesNamesTheField) {
  const std::string text = read_fixture("bad_missing_field.json");
  try {
    core::EstimateRequest::from_json(util::Json::parse(text));
    FAIL() << "request without devices was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("devices"), std::string::npos)
        << "error must name the missing field: " << error.what();
  }
}

/// The message `call` throws std::invalid_argument with.
template <typename Call>
std::string rejection_of(Call call) {
  try {
    call();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "(accepted)";
}

TEST(EstimateRequestJson, BadFixtureUnknownEstimatorNamesTheEstimator) {
  // The estimators field checks names against the registry: the document
  // fails to parse, and the same request built in C++ fails the sweep
  // with the same message, before any profile runs.
  util::Json document =
      util::Json::parse(read_fixture("bad_unknown_estimator.json"));
  const std::string message = rejection_of(
      [&] { core::EstimateRequest::from_json(document); });
  EXPECT_NE(message.find("'warp-drive'"), std::string::npos)
      << "error must name the unknown estimator: " << message;
  document.as_object().erase("estimators");
  core::EstimateRequest request = core::EstimateRequest::from_json(document);
  request.estimators = {"warp-drive"};
  core::EstimationService service;
  EXPECT_EQ(rejection_of([&] { service.sweep(request); }), message);
  EXPECT_EQ(service.session().misses(), 0u);
}

TEST(EstimateRequestJson, BadFixtureBackendConfigFailsWithActionableMessage) {
  // The allocator_config field builds a throwaway backend from the knobs,
  // surfacing the backend's own diagnostic, on both paths.
  util::Json document =
      util::Json::parse(read_fixture("bad_backend_config.json"));
  const std::string message = rejection_of(
      [&] { core::EstimateRequest::from_json(document); });
  EXPECT_NE(message.find("malformed bin config"), std::string::npos)
      << message;
  EXPECT_NE(message.find("min_bin"), std::string::npos)
      << "error must name the offending knob: " << message;
  document.as_object().erase("allocator_config");
  core::EstimateRequest request = core::EstimateRequest::from_json(document);
  request.allocator_config["cub-binned"] = {{"min_bin", 20}, {"max_bin", 5}};
  core::EstimationService service;
  EXPECT_EQ(rejection_of([&] { service.sweep(request); }), message);
  EXPECT_EQ(service.session().misses(), 0u);
}

TEST(EstimationServiceSweep, AllocatorConfigKnobsSeparateResultCacheEntries) {
  // Two sweeps differing only in allocator_config must not alias in the
  // result cache: the tuned pass reuses the profile but re-replays, and
  // its estimates move with the knobs.
  core::EstimateRequest request = sweep_request();
  request.allocators = {"cub-binned"};
  core::EstimationService service;
  const core::EstimateReport defaults = service.sweep(request);
  EXPECT_EQ(defaults.profiles_run, 1u);

  request.allocator_config["cub-binned"] = {{"bin_growth", 4},
                                            {"min_bin", 3},
                                            {"max_bin", 12},
                                            {"max_cached_bytes", 200000000}};
  const core::EstimateReport tuned = service.sweep(request);
  EXPECT_EQ(tuned.profiles_run, 0u);  // same job: cached profile serves it
  EXPECT_EQ(tuned.result_cache_hits, 0u)
      << "knob fingerprint missing from the result-cache key";
  ASSERT_EQ(tuned.entries.size(), defaults.entries.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < tuned.entries.size(); ++i) {
    any_differs |= tuned.entries[i].estimated_peak !=
                   defaults.entries[i].estimated_peak;
  }
  EXPECT_TRUE(any_differs) << "cub knobs did not reach the replay tower";

  // The exact tuned request repeated IS a result-cache hit.
  const core::EstimateReport repeat = service.sweep(request);
  EXPECT_EQ(repeat.result_cache_hits, repeat.entries.size());
  // And the knobs survive the JSON round-trip the CLI uses.
  const core::EstimateRequest parsed =
      core::EstimateRequest::from_json(request.to_json());
  EXPECT_EQ(parsed.allocator_config, request.allocator_config);
}

TEST(EstimationServiceSweep, RejectsUnknownNames) {
  core::EstimationService service;
  core::EstimateRequest request = sweep_request();
  request.job.model_name = "not-a-model";
  EXPECT_THROW(service.sweep(request), std::invalid_argument);

  request = sweep_request();
  request.allocators = {"not-an-allocator"};
  EXPECT_THROW(service.sweep(request), std::invalid_argument);

  request = sweep_request();
  request.estimators = {"not-an-estimator"};
  EXPECT_THROW(service.sweep(request), std::invalid_argument);
}

// ---------- profile-once / estimate-many ----------

TEST(EstimationServiceSweep, OneProfileManyReplays) {
  // The acceptance sweep: 1 job x 4 devices x every allocator. Exactly one
  // CPU profile and one replay per allocator; each device verdict reads
  // its allocator's unbounded peak.
  core::EstimateRequest request = sweep_request();
  request.devices.push_back(gpu::DeviceModel{"Custom-24GB",
                                             std::int64_t{24} << 30,
                                             std::int64_t{300} << 20,
                                             std::int64_t{600} << 20});
  request.allocators = alloc::backend_names();
  ASSERT_GE(request.allocators.size(), 3u);

  core::EstimationService service;
  const core::EstimateReport report = service.sweep(request);

  const std::size_t n = request.devices.size() * request.allocators.size();
  ASSERT_EQ(report.entries.size(), n);
  EXPECT_EQ(report.profiles_run, 1u);
  EXPECT_EQ(report.profile_cache_hits, request.allocators.size() - 1);
  EXPECT_EQ(report.replays_run, request.allocators.size());
  EXPECT_EQ(report.result_cache_hits, 0u);

  // Stage timings prove no re-profile: exactly one entry paid the profile.
  std::size_t cold_entries = 0;
  for (const core::EstimateEntry& entry : report.entries) {
    EXPECT_TRUE(entry.supported);
    EXPECT_GT(entry.estimated_peak, 0) << entry.device << "/" << entry.allocator;
    EXPECT_TRUE(entry.has_orchestrator_stats);
    if (!entry.timings.profile_cache_hit) {
      ++cold_entries;
      EXPECT_GT(entry.timings.profile_seconds, 0.0);
    } else {
      EXPECT_EQ(entry.timings.profile_seconds, 0.0);
      EXPECT_EQ(entry.timings.analyze_seconds, 0.0);
    }
  }
  EXPECT_EQ(cold_entries, 1u);

  // Same-device entries across allocators share the profile, so the OOM
  // verdict per device is consistent with each entry's budget.
  for (const core::EstimateEntry& entry : report.entries) {
    EXPECT_EQ(entry.oom_predicted,
              entry.estimated_peak > entry.device_job_budget);
  }
}

TEST(EstimationServiceSweep, ConcurrentSweepMatchesSerialByteForByte) {
  const core::EstimateRequest request = sweep_request();  // 3 devices x 2 alloc

  core::ServiceOptions serial_options;
  serial_options.threads = 1;
  core::EstimationService serial(serial_options);

  core::ServiceOptions concurrent_options;
  concurrent_options.threads = 4;
  core::EstimationService concurrent(concurrent_options);

  const core::EstimateReport serial_report = serial.sweep(request);
  const core::EstimateReport concurrent_report = concurrent.sweep(request);

  // Byte-identical deterministic payload (timings excluded: wall clocks
  // legitimately differ between runs).
  EXPECT_EQ(serial_report.to_json(/*include_timings=*/false).dump(2),
            concurrent_report.to_json(/*include_timings=*/false).dump(2));

  // Both paths hit the profile cache for all but one entry.
  EXPECT_EQ(serial_report.profiles_run, 1u);
  EXPECT_EQ(concurrent_report.profiles_run, 1u);
  EXPECT_EQ(concurrent_report.profile_cache_hits,
            serial_report.profile_cache_hits);
}

/// Four cards with different job budgets around distilgpt2 b5's ~3.8 GB
/// peak: a 3 GiB what-if card that cannot hold it, three that can.
std::vector<gpu::DeviceModel> mixed_budget_devices() {
  const gpu::DeviceModel tight{"Tight-3GB", std::int64_t{3} << 30,
                               std::int64_t{300} << 20,
                               std::int64_t{300} << 20};
  return {tight, gpu::rtx4060(), gpu::rtx3060(), gpu::a100_40gb()};
}

TEST(EstimationServiceSweep, EveryEntryMatchesAnIndependentPerDeviceReplay) {
  // Device entries share one replay per allocator; that sharing must be
  // invisible. For every registry backend, each entry's peak, verdict and
  // curve equal a fresh replay the test runs for that device on its own.
  core::EstimateRequest request;
  request.job = small_job();
  request.devices = mixed_budget_devices();
  request.allocators = alloc::backend_names();
  request.record_curve = true;

  // The profile the service replays, under the key the "xMem" engine uses
  // (default orchestrator rules).
  const auto session = std::make_shared<core::ProfileSession>();
  core::ProfileKey key;
  key.model_name = request.job.model_name;
  key.batch_size = request.job.batch_size;
  key.optimizer = request.job.optimizer;
  key.placement = request.job.placement;
  key.seed = request.job.seed;
  key.profile_iterations = request.profile_iterations;
  const core::OrchestratedSequence& sequence =
      session->get(key).artifacts->orchestration.sequence;

  core::ServiceOptions serial_options;
  serial_options.threads = 1;
  serial_options.session = session;
  core::EstimationService serial(serial_options);
  const core::EstimateReport report = serial.sweep(request);
  EXPECT_EQ(report.profiles_run, 0u)
      << "the service did not reuse the test's profile key";
  EXPECT_EQ(report.replays_run, request.allocators.size());
  ASSERT_EQ(report.entries.size(),
            request.devices.size() * request.allocators.size());

  std::size_t ooms = 0;
  std::size_t fits = 0;
  std::size_t i = 0;
  for (const gpu::DeviceModel& device : request.devices) {
    for (const std::string& backend : request.allocators) {
      const core::EstimateEntry& entry = report.entries[i++];
      ASSERT_EQ(entry.device, device.name);
      ASSERT_EQ(entry.allocator, backend);
      core::SimulationOptions options;
      options.backend = backend;
      options.record_series = true;
      const core::SimulationResult fresh =
          core::MemorySimulator().replay(sequence, options);
      EXPECT_EQ(entry.estimated_peak, fresh.peak_device)
          << device.name << "/" << backend;
      EXPECT_EQ(entry.oom_predicted, fresh.peak_device > device.job_budget())
          << device.name << "/" << backend;
      EXPECT_EQ(entry.reserved_curve, fresh.reserved_series)
          << device.name << "/" << backend;
      ++(entry.oom_predicted ? ooms : fits);
    }
  }
  EXPECT_EQ(ooms, request.allocators.size()) << "the 3 GiB card must OOM";
  EXPECT_EQ(fits, 3 * request.allocators.size());

  core::ServiceOptions threaded_options = serial_options;
  threaded_options.threads = 4;
  core::EstimationService threaded(threaded_options);
  EXPECT_EQ(report.to_json(/*include_timings=*/false).dump(2),
            threaded.sweep(request).to_json(/*include_timings=*/false).dump(2));
}

/// distilgpt2 b5 under every backend but the last, on one card none of the
/// other requests name.
core::EstimateRequest warm_request() {
  core::EstimateRequest warm;
  warm.job = small_job();
  warm.devices = {gpu::DeviceModel{"Warmup-8GB", std::int64_t{8} << 30,
                                   std::int64_t{300} << 20,
                                   std::int64_t{300} << 20}};
  warm.allocators = alloc::backend_names();
  warm.allocators.pop_back();  // the last backend stays wholly cold
  return warm;
}

/// A service whose result cache holds the answers to warm_request().
struct WarmService {
  std::shared_ptr<core::ProfileSession> session =
      std::make_shared<core::ProfileSession>();
  std::unique_ptr<core::EstimationService> service;

  explicit WarmService(std::size_t threads) {
    core::ServiceOptions options;
    options.threads = threads;
    options.session = session;
    service = std::make_unique<core::EstimationService>(options);
    service->sweep(warm_request());
  }

  std::uint64_t lookups() const { return session->hits() + session->misses(); }
};

TEST(EstimationServiceSweep, KnownReplayAnswersNewCardsFromTheCache) {
  // A session-backed answer names no device (the replay is unbounded,
  // §3.4): a job and allocator replayed once answer never-seen cards from
  // the result cache with no replay and no session lookup, and each card
  // still gets its own verdict.
  core::EstimateRequest new_cards = warm_request();
  new_cards.devices = mixed_budget_devices();
  core::EstimationService cold;
  const core::EstimateReport fresh = cold.sweep(new_cards);

  std::string serial_json;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    WarmService warm(threads);
    const std::uint64_t lookups_before = warm.lookups();
    const core::EstimateReport report = warm.service->sweep(new_cards);
    EXPECT_EQ(report.replays_run, 0u) << threads << " threads";
    EXPECT_EQ(report.profiles_run + report.profile_cache_hits, 0u);
    EXPECT_EQ(warm.lookups(), lookups_before);
    ASSERT_EQ(report.entries.size(), fresh.entries.size());
    EXPECT_EQ(report.result_cache_hits, report.entries.size());
    std::size_t ooms = 0;
    for (std::size_t e = 0; e < fresh.entries.size(); ++e) {
      EXPECT_EQ(report.entries[e].to_json(/*include_timings=*/false).dump(),
                fresh.entries[e].to_json(/*include_timings=*/false).dump());
      if (report.entries[e].oom_predicted) ++ooms;
    }
    EXPECT_EQ(ooms, new_cards.allocators.size()) << "the 3 GiB card must OOM";
    const std::string json = report.to_json(/*include_timings=*/false).dump();
    if (threads == 1) serial_json = json;
    EXPECT_EQ(json, serial_json);
  }

  // The cold allocator replays once for every card; a fully cached sweep
  // then runs nothing and looks nothing up.
  WarmService warm(4);
  core::EstimateRequest full = new_cards;
  full.allocators = alloc::backend_names();
  std::uint64_t lookups_before = warm.lookups();
  const core::EstimateReport partly = warm.service->sweep(full);
  EXPECT_EQ(partly.replays_run, 1u);
  EXPECT_EQ(partly.profiles_run, 0u);
  EXPECT_EQ(partly.profile_cache_hits, 1u);
  EXPECT_EQ(warm.lookups() - lookups_before, 1u);
  EXPECT_EQ(partly.result_cache_hits,
            full.devices.size() * new_cards.allocators.size());
  lookups_before = warm.lookups();
  const core::EstimateReport repeat = warm.service->sweep(full);
  EXPECT_EQ(repeat.replays_run, 0u);
  EXPECT_EQ(repeat.profiles_run + repeat.profile_cache_hits, 0u);
  EXPECT_EQ(repeat.result_cache_hits, repeat.entries.size());
  EXPECT_EQ(warm.lookups(), lookups_before);

  // Whatever the answer does depend on still misses.
  const auto expect_miss = [&warm](const core::EstimateRequest& request,
                                   const std::string& what) {
    const core::EstimateReport report = warm.service->sweep(request);
    EXPECT_EQ(report.result_cache_hits, 0u) << what;
    EXPECT_GT(report.replays_run, 0u) << what;
  };
  core::EstimateRequest other = new_cards;
  other.allocators = {"cub-binned"};
  other.allocator_config["cub-binned"] = {{"min_bin", 3}, {"max_bin", 12}};
  expect_miss(other, "other knobs");
  other = new_cards;
  other.record_curve = true;
  expect_miss(other, "curve on");
  other = new_cards;
  other.profile_iterations = 2;
  expect_miss(other, "other profile_iterations");
  other = new_cards;
  other.estimators = {"xMem-noOrch"};
  expect_miss(other, "xMem-noOrch");

  // A per-device estimator keeps the card's name and geometry in its key.
  gpu::DeviceModel roomy = gpu::rtx3060();
  roomy.name = "what-if";
  roomy.capacity = std::int64_t{40} << 30;
  gpu::DeviceModel tight = roomy;
  tight.capacity = std::int64_t{4} << 30;
  const core::TrainJob job = small_job();
  EXPECT_FALSE(
      warm.service->estimate("DNNMem", job, roomy).timings.result_cache_hit);
  EXPECT_FALSE(
      warm.service->estimate("DNNMem", job, tight).timings.result_cache_hit);
  EXPECT_TRUE(
      warm.service->estimate("DNNMem", job, roomy).timings.result_cache_hit);
}

TEST(EstimationServiceSweep, ResultCacheServesRepeats) {
  core::EstimationService service;
  const core::TrainJob job = small_job();
  const core::EstimateEntry first =
      service.estimate("xMem", job, gpu::rtx3060());
  const core::EstimateEntry second =
      service.estimate("xMem", job, gpu::rtx3060());
  EXPECT_FALSE(first.timings.result_cache_hit);
  EXPECT_TRUE(second.timings.result_cache_hit);
  EXPECT_EQ(first.estimated_peak, second.estimated_peak);
  // Cached repeats keep the original runtime (the harness contract: the
  // estimate is computed once per configuration).
  EXPECT_EQ(first.timings.total_seconds, second.timings.total_seconds);
}

TEST(EstimationServiceSweep, ResultCacheDistinguishesDeviceGeometry) {
  // Two custom devices can share a name with different geometry. They
  // share one cached replay, but each gets the verdict of its own budget.
  core::EstimationService service;
  const core::TrainJob job = small_job();
  gpu::DeviceModel roomy = gpu::rtx3060();
  roomy.name = "what-if";
  roomy.capacity = std::int64_t{40} << 30;
  gpu::DeviceModel tight = roomy;
  tight.capacity = std::int64_t{4} << 30;

  const core::EstimateEntry first = service.estimate("xMem", job, roomy);
  const core::EstimateEntry second = service.estimate("xMem", job, tight);
  EXPECT_FALSE(first.oom_predicted);
  EXPECT_TRUE(second.timings.result_cache_hit);
  EXPECT_TRUE(second.oom_predicted);
  EXPECT_NE(first.device_job_budget, second.device_job_budget);
}

TEST(EstimationServiceSweep, SessionEnginesEqualOneReplayOfTheirProfile) {
  // "xMem" and "xMem-noOrch" have no Estimator class: the service answers
  // each with the cached sequence of its ProfileKey and one replay. On
  // every backend, each entry equals that replay run here on a profile of
  // the test's own.
  core::EstimateRequest request;
  request.job = small_job();
  request.devices = {gpu::rtx3060(), gpu::a100_40gb()};
  request.allocators = alloc::backend_names();
  request.estimators = {"xMem", "xMem-noOrch"};
  core::EstimationService service;
  const core::EstimateReport report = service.sweep(request);
  ASSERT_EQ(report.entries.size(), request.estimators.size() *
                                       request.devices.size() *
                                       request.allocators.size());
  EXPECT_EQ(report.profiles_run, 2u);

  core::ProfileSession session;
  std::size_t i = 0;
  for (const std::string& estimator : request.estimators) {
    const core::ProfileArtifacts& artifacts =
        *session
             .get(core::ProfileKey::of(request.job, request.profile_iterations,
                                       estimator == "xMem"))
             .artifacts;
    for (const gpu::DeviceModel& device : request.devices) {
      for (const std::string& backend : request.allocators) {
        const core::EstimateEntry& entry = report.entries[i++];
        ASSERT_EQ(entry.estimator, estimator);
        ASSERT_EQ(entry.device, device.name);
        ASSERT_EQ(entry.allocator, backend);
        core::SimulationOptions options;
        options.backend = backend;
        const core::SimulationResult fresh =
            core::MemorySimulator().replay(artifacts.orchestration.sequence,
                                           options);
        EXPECT_EQ(entry.estimated_peak, fresh.peak_device)
            << estimator << "/" << device.name << "/" << backend;
        EXPECT_EQ(entry.oom_predicted,
                  fresh.peak_device > device.job_budget())
            << estimator << "/" << device.name << "/" << backend;
        const core::OrchestratorStats& stats = artifacts.orchestration.stats;
        EXPECT_EQ(entry.orchestrator_stats.params_pinned, stats.params_pinned);
        EXPECT_EQ(entry.orchestrator_stats.gradients_retimed,
                  stats.gradients_retimed);
      }
    }
  }
  EXPECT_EQ(session.misses(), 2u);
}

TEST(ProfileKeyOf, XMemKeyIsTheDefaultKeyOfTheJob) {
  // A caller that builds the key field by field, leaving the iterations
  // and the Orchestrator rules at their defaults, names the profile the
  // service files "xMem" under, and gets a session hit for it.
  const core::TrainJob job = small_job();
  core::ProfileKey by_hand;
  by_hand.model_name = job.model_name;
  by_hand.batch_size = job.batch_size;
  by_hand.optimizer = job.optimizer;
  by_hand.placement = job.placement;
  by_hand.seed = job.seed;
  EXPECT_EQ(core::ProfileKey::of(job).cache_string(), by_hand.cache_string());
  EXPECT_EQ(core::ProfileKey::of(job, 3, true).cache_string(),
            by_hand.cache_string());
  EXPECT_EQ(core::ProfileKey::of(job, 3, false).cache_string(),
            "distilgpt2/AdamW/b5/POS1/s7/it3/rules0000");

  core::ServiceOptions options;
  options.session = std::make_shared<core::ProfileSession>();
  options.session->get(by_hand);
  core::EstimationService service(options);
  const core::EstimateEntry entry =
      service.estimate("xMem", job, gpu::rtx3060());
  EXPECT_TRUE(entry.timings.profile_cache_hit);
  EXPECT_EQ(options.session->misses(), 1u);
  EXPECT_EQ(options.session->hits(), 1u);
}

// ---------- supports() gating ----------

class UnsupportedEverythingEstimator final : public core::Estimator {
 public:
  std::string name() const override { return "MockUnsupported"; }
  bool supports(const core::TrainJob&) const override { return false; }

  int compute_calls = 0;

 protected:
  core::EstimateResult compute(const core::TrainJob&,
                               const gpu::DeviceModel&) override {
    ++compute_calls;
    core::EstimateResult bogus;
    bogus.estimated_peak = 1;  // would be a bogus peak if it ever leaked
    return bogus;
  }
};

TEST(SupportsGating, ComputeNeverRunsForUnsupportedJobs) {
  // The gate lives in the non-virtual Estimator::estimate.
  UnsupportedEverythingEstimator estimator;
  const core::EstimateResult result =
      estimator.estimate(small_job(), gpu::rtx3060());
  EXPECT_FALSE(result.supported);
  EXPECT_EQ(result.estimated_peak, 0);
  EXPECT_FALSE(result.oom_predicted);
  EXPECT_EQ(estimator.compute_calls, 0);
}

TEST(SupportsGating, LLMemOnCnnYieldsUnsupportedReport) {
  // The regression the redesign guards: LLMem is CausalLM-only; a CNN job
  // must come back supported=false from the service, never a bogus peak.
  core::EstimationService service;
  core::TrainJob cnn_job;
  cnn_job.model_name = "MnasNet";
  cnn_job.batch_size = 200;
  cnn_job.optimizer = fw::OptimizerKind::kSgd;

  const core::EstimateEntry entry =
      service.estimate("LLMem", cnn_job, gpu::rtx3060());
  EXPECT_FALSE(entry.supported);
  EXPECT_EQ(entry.estimated_peak, 0);
  EXPECT_FALSE(entry.oom_predicted);

  const util::Json json = entry.to_json();
  EXPECT_FALSE(json.contains("estimated_peak_bytes"));
  EXPECT_FALSE(json.at("supported").as_bool());
}

TEST(SupportsGating, BaselinesWithoutAllocatorGetOneEntryPerDevice) {
  core::EstimationService service;
  core::EstimateRequest request = sweep_request();
  request.estimators = {"xMem", "DNNMem"};
  const core::EstimateReport report = service.sweep(request);
  // xMem: devices x allocators; DNNMem ignores the allocator dimension.
  ASSERT_EQ(report.entries.size(),
            request.devices.size() * request.allocators.size() +
                request.devices.size());
  for (std::size_t i = request.devices.size() * request.allocators.size();
       i < report.entries.size(); ++i) {
    EXPECT_EQ(report.entries[i].estimator, "DNNMem");
    EXPECT_TRUE(report.entries[i].allocator.empty());
    EXPECT_FALSE(report.entries[i].has_orchestrator_stats);
  }
}

// ---------- ProfileSession ----------

TEST(ProfileSessionCache, BoundedLruEvictsOldestKey) {
  core::ProfileSession session(/*capacity=*/2);

  auto key_for = [&](int batch) {
    core::TrainJob job = small_job();
    job.batch_size = batch;
    return core::ProfileKey::of(job);
  };

  session.get(key_for(1));
  session.get(key_for(2));
  session.get(key_for(3));  // evicts batch=1
  EXPECT_EQ(session.size(), 2u);
  EXPECT_EQ(session.misses(), 3u);

  session.get(key_for(3));  // resident
  EXPECT_EQ(session.hits(), 1u);
  session.get(key_for(1));  // was evicted: must re-profile
  EXPECT_EQ(session.misses(), 4u);
}

TEST(ProfileSessionCache, SharedSessionAcrossServices) {
  core::ServiceOptions options;
  options.session = std::make_shared<core::ProfileSession>();
  const std::shared_ptr<core::ProfileSession> session = options.session;
  core::EstimationService first(options);
  core::EstimationService second(options);
  const core::TrainJob job = small_job();
  first.estimate("xMem", job, gpu::rtx3060());
  second.estimate("xMem", job, gpu::rtx4060());
  EXPECT_EQ(session->misses(), 1u);
  EXPECT_EQ(session->hits(), 1u);
}

TEST(ProfileSessionCache, FailuresAreNotCached) {
  core::ProfileSession session;
  core::ProfileKey key;
  key.model_name = "no-such-model";
  key.batch_size = 1;
  EXPECT_THROW(session.get(key), std::invalid_argument);
  EXPECT_EQ(session.size(), 0u);
  EXPECT_THROW(session.get(key), std::invalid_argument);  // retried, not stuck
}

// ---------- report JSON ----------

TEST(EstimateReportJson, SchemaFieldsPresent) {
  core::EstimationService service;
  core::EstimateRequest request = sweep_request();
  request.record_curve = true;
  const core::EstimateReport report = service.sweep(request);

  const util::Json json = report.to_json();
  EXPECT_EQ(json.at("schema_version").as_int(), 1);
  EXPECT_EQ(json.at("job").at("model").as_string(), "distilgpt2");
  EXPECT_EQ(json.at("entries").size(), report.entries.size());
  const util::Json& entry = json.at("entries")[0];
  EXPECT_TRUE(entry.contains("estimator"));
  EXPECT_TRUE(entry.contains("device"));
  EXPECT_TRUE(entry.contains("allocator"));
  EXPECT_TRUE(entry.contains("estimated_peak_bytes"));
  EXPECT_TRUE(entry.contains("oom_predicted"));
  EXPECT_TRUE(entry.contains("orchestrator_stats"));
  EXPECT_TRUE(entry.contains("timings"));
  EXPECT_TRUE(entry.contains("reserved_curve"));
  EXPECT_GT(entry.at("reserved_curve").size(), 0u);
  const util::Json& counters = json.at("stage_counters");
  EXPECT_EQ(counters.at("profiles_run").as_int(), 1);

  // Timing-free rendering (golden diffs) drops every wall-clock field.
  const util::Json stable = report.to_json(/*include_timings=*/false);
  EXPECT_FALSE(stable.contains("wall_seconds"));
  EXPECT_FALSE(stable.at("entries")[0].contains("timings"));
}

// ---------- replay ceiling ----------

TEST(EstimationServiceSweep, JobPastTheReplayCeilingFailsNamingIt) {
  // distilgpt2 with AdamW needs about 6.8e14 bytes at batch 2^20, which
  // the 2^50-byte "unbounded" replay still holds; at 2^24 it runs out, and
  // the sweep must fail instead of reporting the cut-off peak.
  core::EstimateRequest request;
  request.job.model_name = "distilgpt2";
  request.job.optimizer = fw::OptimizerKind::kAdamW;
  request.devices = {gpu::a100_40gb()};
  request.job.batch_size = 1 << 20;
  core::EstimationService service;
  EXPECT_EQ(service.sweep(request).entries.at(0).estimated_peak,
            682572665323520);
  request.job.batch_size = 1 << 24;
  try {
    service.sweep(request);
    FAIL() << "a job past the replay ceiling must not be estimated";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "replay: the job needs more than the 1125899906842624-byte "
                 "replay capacity (2^50); its peak cannot be estimated");
  }
}

// ---------- metamorphic relations ----------

TEST(SweepMetamorphic, AddingADeviceChangesNoOtherEntry) {
  // Relation: a device's entry depends on the job, the estimator, the
  // allocator and that device only. Adding cards to the sweep, in front of
  // and behind the others, leaves every existing entry byte-identical, on
  // a fresh service and on one that answered the smaller sweep first.
  core::EstimateRequest small;
  small.job = small_job();
  small.devices = {gpu::rtx3060(), gpu::a100_40gb()};
  small.allocators = alloc::backend_names();
  small.estimators = {"xMem", "xMem-noOrch", "DNNMem", "LLMem"};
  core::EstimateRequest large = small;
  gpu::DeviceModel custom = gpu::rtx4060();
  custom.name = "custom-6g";
  custom.capacity = 6 * util::kGiB;
  large.devices = {custom, gpu::rtx3060(), gpu::rtx4060(), gpu::a100_40gb()};

  const auto by_key = [](const core::EstimateReport& report) {
    std::map<std::string, std::string> entries;
    for (const core::EstimateEntry& entry : report.entries) {
      entries[entry.estimator + "|" + entry.device + "|" + entry.allocator] =
          entry.to_json(/*include_timings=*/false).dump();
    }
    return entries;
  };
  core::EstimationService warm;
  const auto expected = by_key(warm.sweep(small));
  ASSERT_FALSE(expected.empty());
  core::EstimationService fresh;
  for (core::EstimationService* service : {&warm, &fresh}) {
    const auto grown = by_key(service->sweep(large));
    EXPECT_EQ(grown.size(), 2 * expected.size());  // twice the devices
    for (const auto& [key, entry] : expected) {
      const auto it = grown.find(key);
      ASSERT_NE(it, grown.end()) << key;
      EXPECT_EQ(it->second, entry) << key;
    }
  }
}

}  // namespace
}  // namespace xmem
