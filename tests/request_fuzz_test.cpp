// Structure-aware request fuzzer. Valid sweep, plan and fleet requests are
// drawn at random and emitted by their field lists (to_json); each document
// is then mutated one field at a time: a wrong-typed value, each edge of an
// integer range, a missing key, an unknown registry name, an unknown key.
// For every mutated document:
//
//   * the document path (from_json, then the service) and the C++ path
//     (the parsed request with the same mutation, handed to the service)
//     agree: both answer the same report, or both throw
//     std::invalid_argument with the same message — and a rejection runs
//     no profile;
//   * an in-process server answers it the same way (the same report, or a
//     bad_request error frame with the same message), and still answers
//     ping after the campaign.
//
// The tables below describe every integer and string key the lists emit; a
// new field fails the campaign until it is described here.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/estimation_service.h"
#include "sched/fleet_planner.h"
#include "server/client.h"
#include "server/server.h"
#include "util/json.h"
#include "util/rng.h"

namespace xmem {
namespace {

constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMaxGpus = 1024;
constexpr std::int64_t kMaxBytes = std::int64_t{1} << 50;

struct IntRange {
  std::int64_t min;
  std::int64_t max;
  /// Whether a question at `max` is cheap to answer. When it is not (a
  /// batch of INT_MAX), the on-bound document is only parsed, and the C++
  /// request only checked the way the service's entry check does, by its
  /// own round trip. A GPU budget at its cap is answered with the drawn
  /// top-K refinement: refining every decomposition of 1024 GPUs would
  /// replay tens of thousands of candidates.
  bool answer_max;
};

/// Every integer key of the three request types, by key.
const std::map<std::string, IntRange>& int_keys() {
  static const std::map<std::string, IntRange> keys = {
      {"absolute_bytes", {0, kMaxBytes, true}},
      {"activation_replication_pct", {0, 100, true}},
      {"batch", {1, kInt32Max, false}},
      {"capacity_bytes", {1, kMaxBytes, true}},
      {"count", {1, kInt32Max, false}},
      {"ddp_bucket_bytes", {0, kInt64Max, false}},
      {"ddp_bucket_count", {0, kInt32Max, false}},
      {"m_fm_bytes", {0, kMaxBytes, true}},
      {"m_init_bytes", {0, kMaxBytes, true}},
      {"max_candidates", {0, kInt64Max, true}},
      {"max_gpus", {1, kMaxGpus, true}},
      {"max_gpus_per_job", {1, kMaxGpus, true}},
      {"micro_batches", {1, kInt32Max, false}},
      {"percent", {0, 1000, true}},
      {"priority", {kInt32Min, kInt32Max, true}},
      {"profile_iterations", {1, kInt32Max, false}},
      {"refine_top_k", {0, kInt32Max, true}},
      {"seed", {kInt64Min, kInt64Max, true}},
      {"virtual_stages", {1, kInt32Max, false}},
      {"zero_stage", {0, 3, true}},
  };
  return keys;
}

/// Every string key (array entries by their array's key): true when the
/// value must name a registry entry, false for free text.
const std::map<std::string, bool>& text_keys() {
  static const std::map<std::string, bool> keys = {
      {"allocator", true},  {"allocators", true}, {"device", true},
      {"devices", true},    {"estimator", true},  {"estimators", true},
      {"id", false},        {"model", true},      {"name", false},
      {"optimizer", true},  {"placement", true},  {"policy", true},
      {"refine_top_k", true}, {"schedule", true}, {"tenant", false},
  };
  return keys;
}

/// Objects keyed by data (a device or backend name), not by field.
bool is_map_key(const std::string& key) {
  return key == "per_device" || key == "allocator_config";
}

// ---------- paths into a document ----------

struct Step {
  std::string key;  ///< empty for an array index
  std::size_t index = 0;
};
using Path = std::vector<Step>;

template <typename J>
J& at_path(J& json, const Path& path) {
  J* node = &json;
  for (const Step& step : path) {
    node = step.key.empty() ? &node->as_array()[step.index]
                            : &node->as_object().at(step.key);
  }
  return *node;
}

/// "jobs[].job.batch", "headroom.per_device.{}.percent": indices and map
/// keys elided, so one setter serves every entry.
std::string pattern(const Path& path) {
  std::string out;
  bool in_map = false;
  for (const Step& step : path) {
    if (step.key.empty()) {
      out += "[]";
    } else {
      if (!out.empty()) out += ".";
      out += in_map ? "{}" : step.key;
    }
    in_map = !step.key.empty() && is_map_key(step.key);
  }
  return out;
}

/// The key a value sits under (an array entry: its array's key).
std::string owner_key(const Path& path) {
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    if (!it->key.empty()) return it->key;
  }
  return "";
}

/// The last array index on the path (0 when there is none).
std::size_t last_index(const Path& path) {
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    if (it->key.empty()) return it->index;
  }
  return 0;
}

void collect(const util::Json& json, Path& path, std::vector<Path>& values,
             std::vector<Path>& objects) {
  if (!path.empty()) values.push_back(path);
  if (json.is_object()) {
    objects.push_back(path);
    for (const auto& [key, child] : json.as_object()) {
      path.push_back({key, 0});
      collect(child, path, values, objects);
      path.pop_back();
    }
  } else if (json.is_array()) {
    for (std::size_t i = 0; i < json.size(); ++i) {
      path.push_back({"", i});
      collect(json[i], path, values, objects);
      path.pop_back();
    }
  }
}

// ---------- C++ setters ----------

template <typename M>
bool assign(M& member, std::int64_t value) {
  if constexpr (std::is_enum_v<M>) {
    if (!std::in_range<std::underlying_type_t<M>>(value)) return false;
  } else if constexpr (std::is_same_v<M, std::uint64_t>) {
    // Seeds: any int64 spelling is the uint64 with the same bits.
  } else {
    if (!std::in_range<M>(value)) return false;
  }
  member = static_cast<M>(value);
  return true;
}

template <typename R>
using IntSetter = std::function<bool(R&, std::size_t, std::int64_t)>;
template <typename R>
using NameSetter =
    std::function<void(R&, std::size_t, const std::string&)>;

template <typename R>
struct Setters {
  std::map<std::string, IntSetter<R>> ints;
  std::map<std::string, NameSetter<R>> names;
};

/// `member` of the object `locate` finds for an entry index.
template <typename R, typename Locate, typename S, typename M>
IntSetter<R> int_member(Locate locate, M S::*member) {
  return [locate, member](R& request, std::size_t i, std::int64_t value) {
    return assign(locate(request, i).*member, value);
  };
}

template <typename R>
void add_job(Setters<R>& setters, const std::string& prefix,
             std::function<core::TrainJob&(R&, std::size_t)> job) {
  setters.ints[prefix + "batch"] =
      int_member<R>(job, &core::TrainJob::batch_size);
  setters.ints[prefix + "seed"] = int_member<R>(job, &core::TrainJob::seed);
  setters.names[prefix + "model"] = [job](R& request, std::size_t i,
                                          const std::string& name) {
    job(request, i).model_name = name;
  };
}

template <typename R>
void add_device(Setters<R>& setters, const std::string& prefix,
                std::function<gpu::DeviceModel&(R&, std::size_t)> device) {
  setters.ints[prefix + "capacity_bytes"] =
      int_member<R>(device, &gpu::DeviceModel::capacity);
  setters.ints[prefix + "m_init_bytes"] =
      int_member<R>(device, &gpu::DeviceModel::m_init);
  setters.ints[prefix + "m_fm_bytes"] =
      int_member<R>(device, &gpu::DeviceModel::m_fm);
}

/// A top-level member.
template <typename R, typename M>
IntSetter<R> top(M R::*member) {
  return [member](R& request, std::size_t, std::int64_t value) {
    return assign(request.*member, value);
  };
}

template <typename R>
NameSetter<R> top_name(std::string R::*member) {
  return [member](R& request, std::size_t, const std::string& name) {
    request.*member = name;
  };
}

Setters<core::EstimateRequest> sweep_setters() {
  using R = core::EstimateRequest;
  Setters<R> s;
  add_job<R>(s, "job.", [](R& r, std::size_t) -> core::TrainJob& {
    return r.job;
  });
  add_device<R>(s, "devices[].", [](R& r, std::size_t i) -> gpu::DeviceModel& {
    return r.devices[i];
  });
  s.ints["profile_iterations"] = top(&R::profile_iterations);
  s.names["allocators[]"] = [](R& r, std::size_t i, const std::string& name) {
    r.allocators[i] = name;
  };
  s.names["estimators[]"] = [](R& r, std::size_t i, const std::string& name) {
    r.estimators[i] = name;
  };
  return s;
}

Setters<core::PlanRequest> plan_setters() {
  using R = core::PlanRequest;
  Setters<R> s;
  add_job<R>(s, "job.", [](R& r, std::size_t) -> core::TrainJob& {
    return r.job;
  });
  add_device<R>(s, "devices[].", [](R& r, std::size_t i) -> gpu::DeviceModel& {
    return r.devices[i];
  });
  s.ints["max_gpus"] = top(&R::max_gpus);
  s.ints["micro_batches"] = top(&R::micro_batches);
  s.ints["virtual_stages"] = top(&R::virtual_stages);
  s.ints["zero_stage"] = top(&R::zero);
  s.ints["ddp_bucket_bytes"] = top(&R::ddp_bucket_bytes);
  s.ints["ddp_bucket_count"] = top(&R::ddp_bucket_count);
  s.ints["activation_replication_pct"] = top(&R::activation_replication_pct);
  s.ints["profile_iterations"] = top(&R::profile_iterations);
  s.ints["max_candidates"] = top(&R::max_candidates);
  s.ints["refine_top_k"] = top(&R::refine_top_k);
  s.names["allocator"] = top_name(&R::allocator);
  return s;
}

Setters<sched::FleetRequest> fleet_setters() {
  using R = sched::FleetRequest;
  Setters<R> s;
  add_job<R>(s, "jobs[].job.", [](R& r, std::size_t i) -> core::TrainJob& {
    return r.jobs[i].job;
  });
  s.ints["jobs[].priority"] =
      int_member<R>([](R& r, std::size_t i) -> sched::FleetJob& {
        return r.jobs[i];
      }, &sched::FleetJob::priority);
  for (const auto& [key, member] :
       {std::pair{std::string("pools"), &R::pools},
        std::pair{std::string("what_if"), &R::what_if}}) {
    const auto pools = member;
    const auto locate = [pools](R& r, std::size_t i) -> sched::GpuPool& {
      return (r.*pools)[i];
    };
    s.ints[key + "[].count"] = int_member<R>(locate, &sched::GpuPool::count);
    add_device<R>(s, key + "[].device.",
                  [locate](R& r, std::size_t i) -> gpu::DeviceModel& {
                    return locate(r, i).device;
                  });
  }
  s.ints["headroom.absolute_bytes"] =
      [](R& r, std::size_t, std::int64_t value) {
        return assign(r.headroom.base.absolute_bytes, value);
      };
  s.ints["headroom.percent"] = [](R& r, std::size_t, std::int64_t value) {
    return assign(r.headroom.base.percent, value);
  };
  s.ints["profile_iterations"] = top(&R::profile_iterations);
  s.ints["max_gpus_per_job"] = top(&R::max_gpus_per_job);
  s.names["estimator"] = top_name(&R::estimator);
  s.names["allocator"] = top_name(&R::allocator);
  s.names["policy"] = top_name(&R::policy);
  return s;
}

// ---------- valid requests ----------

template <typename T>
const T& pick(util::Rng& rng, const std::vector<T>& values) {
  return values[rng.next_below(values.size())];
}

core::TrainJob draw_job(util::Rng& rng) {
  core::TrainJob job;
  job.model_name = pick<std::string>(rng, {"distilgpt2", "MobileNetV2"});
  job.batch_size = static_cast<int>(rng.next_in_range(1, 3));
  job.optimizer = pick<fw::OptimizerKind>(
      rng, {fw::OptimizerKind::kSgd, fw::OptimizerKind::kAdamW});
  job.placement = rng.next_bool(0.5)
                      ? fw::ZeroGradPlacement::kPos0BeforeBackward
                      : fw::ZeroGradPlacement::kPos1IterStart;
  job.seed = rng.next_below(3);
  return job;
}

gpu::DeviceModel draw_device(util::Rng& rng, const std::string& custom_name) {
  if (rng.next_bool(0.5)) return gpu::rtx3060();
  return {custom_name, rng.next_in_range(std::int64_t{8} << 30,
                                         std::int64_t{24} << 30),
          rng.next_in_range(0, std::int64_t{1} << 28),
          rng.next_in_range(0, std::int64_t{1} << 28)};
}

std::map<std::string, alloc::BackendKnobs> draw_config(util::Rng& rng) {
  std::map<std::string, alloc::BackendKnobs> config;
  if (rng.next_bool(0.5)) {
    config["cub-binned"] = {{"min_bin", rng.next_in_range(1, 3)},
                            {"max_bin", rng.next_in_range(10, 12)}};
  }
  return config;
}

std::string draw_tenant(util::Rng& rng) {
  return rng.next_bool(0.5) ? "" : "team-" + std::to_string(rng.next_below(3));
}

core::EstimateRequest draw_sweep(util::Rng& rng) {
  core::EstimateRequest request;
  request.job = draw_job(rng);
  request.devices = {draw_device(rng, "custom-a")};
  if (rng.next_bool(0.5)) {
    request.devices.push_back(draw_device(rng, "custom-b"));
  }
  request.allocators = {pick<std::string>(rng, {"pytorch", "tf-bfc"})};
  if (rng.next_bool(0.5)) request.allocators.push_back("cub-binned");
  request.estimators = {pick<std::string>(rng, {"xMem", "DNNMem", "LLMem"})};
  request.allocator_config = draw_config(rng);
  request.profile_iterations = static_cast<int>(rng.next_in_range(1, 2));
  request.record_curve = rng.next_bool(0.3);
  request.tenant = draw_tenant(rng);
  return request;
}

core::PlanRequest draw_plan(util::Rng& rng) {
  core::PlanRequest request;
  request.job = draw_job(rng);
  request.devices = {draw_device(rng, "custom-a")};
  request.max_gpus = static_cast<int>(rng.next_in_range(1, 4));
  request.micro_batches = static_cast<int>(rng.next_in_range(1, 4));
  request.schedule = rng.next_bool(0.5) ? core::PipelineSchedule::kOneFOneB
                                        : core::PipelineSchedule::kInterleaved;
  request.virtual_stages = static_cast<int>(rng.next_in_range(1, 2));
  request.zero = core::zero_stage_from_int(
      static_cast<int>(rng.next_in_range(0, 3)));
  request.ddp_bucket_bytes = rng.next_in_range(0, std::int64_t{1} << 26);
  request.ddp_bucket_count = static_cast<int>(rng.next_in_range(0, 2));
  request.activation_replication_pct =
      static_cast<int>(rng.next_in_range(0, 100));
  request.allocator = pick<std::string>(rng, {"pytorch", "cub-binned"});
  request.allocator_config = draw_config(rng);
  request.profile_iterations = static_cast<int>(rng.next_in_range(1, 2));
  request.max_candidates = rng.next_below(6);
  request.refine_top_k = static_cast<int>(rng.next_in_range(0, 2));
  request.refine_all = rng.next_bool(0.2);
  request.comm_overlap = rng.next_bool(0.3);
  request.tenant = draw_tenant(rng);
  return request;
}

sched::FleetRequest draw_fleet(util::Rng& rng) {
  sched::FleetRequest request;
  request.jobs.resize(rng.next_in_range(1, 2));
  for (std::size_t i = 0; i < request.jobs.size(); ++i) {
    request.jobs[i].id = "j" + std::to_string(i);
    request.jobs[i].job = draw_job(rng);
    request.jobs[i].priority = static_cast<int>(rng.next_in_range(-2, 2));
  }
  // Distinct device names: one name must mean one geometry.
  request.pools = {{draw_device(rng, "custom-a"),
                    static_cast<int>(rng.next_in_range(1, 2))}};
  if (rng.next_bool(0.5)) request.pools.push_back({gpu::a100_40gb(), 1});
  request.policy = pick<std::string>(
      rng, {"first-fit", "best-fit-decreasing", "whole-gpu"});
  request.headroom.base = {rng.next_in_range(0, std::int64_t{1} << 28),
                           static_cast<int>(rng.next_in_range(0, 10))};
  if (rng.next_bool(0.5)) {
    request.headroom.per_device["GeForce RTX 3060"] = {
        0, static_cast<int>(rng.next_in_range(0, 10))};
  }
  request.estimator = pick<std::string>(rng, {"xMem", "DNNMem"});
  request.allocator = pick<std::string>(rng, {"pytorch", "tf-bfc"});
  request.allocator_config = draw_config(rng);
  request.profile_iterations = static_cast<int>(rng.next_in_range(1, 2));
  request.max_gpus_per_job = static_cast<int>(rng.next_in_range(1, 2));
  request.comm_overlap = rng.next_bool(0.3);
  request.refine_all = rng.next_bool(0.3);
  request.tenant = draw_tenant(rng);
  if (rng.next_bool(0.5)) request.what_if = {{gpu::rtx4060(), 1}};
  return request;
}

/// The emitted document, with reference cards spelled by alias the way a
/// hand-written document names them.
util::Json with_aliases(util::Json json) {
  std::map<std::string, util::Json> alias_of;
  for (const char* alias : {"rtx3060", "rtx4060", "a100"}) {
    core::EstimateRequest probe;
    probe.devices = {gpu::device_by_name(alias)};
    alias_of.emplace(alias, probe.to_json().at("devices")[0]);
  }
  Path path;
  std::vector<Path> values;
  std::vector<Path> objects;
  collect(json, path, values, objects);
  for (const Path& value : values) {
    const std::string key = owner_key(value);
    if (key != "devices" && key != "device") continue;
    util::Json& device = at_path(json, value);
    for (const auto& [alias, reference] : alias_of) {
      if (device == reference) device = util::Json(alias);
    }
  }
  return json;
}

// ---------- the campaign ----------

template <typename R>
struct Mutation {
  Mutation(std::string label_in, util::Json document_in)
      : label(std::move(label_in)), document(std::move(document_in)) {}

  std::string label;
  util::Json document;
  /// The same mutation on the C++ request; null when a C++ request cannot
  /// hold it (a wrong type, a missing key, a value outside the member).
  std::function<bool(R&)> cxx;
  /// Expected of from_json: 1 accept, 0 reject, -1 no expectation.
  int parses = -1;
  /// The message fragment a rejection must carry (empty: any).
  std::string fragment;
  bool answer = true;  ///< run the service on an accepted document
};

struct Outcome {
  bool accepted = false;
  std::string text;  ///< the report without counters, or the message

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Outcome& outcome) {
  constexpr std::size_t kShown = 240;  // reports run to kilobytes
  return out << (outcome.accepted ? "accepted: " : "rejected: ")
             << outcome.text.substr(0, kShown)
             << (outcome.text.size() > kShown ? "..." : "");
}

template <typename R>
struct Surface {
  std::string type;  ///< "sweep" | "plan" | "fleet"
  std::function<util::Json(core::EstimationService&, const R&)> run;
  std::function<util::Json(server::Client&, const util::Json&)> remote;
  Setters<R> setters;
};

/// A report without its counters, which record cache state, not answers.
std::string answer_text(util::Json report) {
  report.as_object().erase("stage_counters");
  report.as_object().erase("counters");
  return report.dump();
}

template <typename R>
class Campaign {
 public:
  Campaign(Surface<R> surface, server::Client& client)
      : surface_(std::move(surface)),
        client_(client),
        session_(std::make_shared<core::ProfileSession>(4096)) {}

  void run(const R& base) {
    for (const Mutation<R>& mutation : mutations(base)) {
      check(base, mutation);
    }
  }

  /// Documents checked, and how many were answered, rejected, compared
  /// with a C++ request, and sent to the server.
  struct Tally {
    std::size_t documents = 0;
    std::size_t answered = 0;
    std::size_t rejected = 0;
    std::size_t cxx = 0;
    std::size_t remote = 0;
  };
  const Tally& tally() const { return tally_; }

 private:
  std::vector<Mutation<R>> mutations(const R& base) const {
    const util::Json document = with_aliases(base.to_json());
    std::vector<Mutation<R>> out;
    Path root;
    std::vector<Path> values;
    std::vector<Path> objects;
    collect(document, root, values, objects);

    for (const Path& path : values) {
      const std::string where = pattern(path);
      const std::string key = owner_key(path);
      const util::Json& value = at_path(document, path);
      const bool knob = where.rfind("allocator_config.", 0) == 0;

      // Wrong type.
      Mutation<R> wrong{where + " wrong type", document};
      util::Json& slot = at_path(wrong.document, path);
      if (value.is_int()) {
        slot = util::Json("7");
      } else if (value.is_string()) {
        slot = util::Json(true);
      } else if (value.is_bool()) {
        slot = util::Json(1);
      } else if (value.is_array()) {
        slot = util::Json::object();
      } else {
        slot = util::Json::array();
      }
      wrong.parses = 0;
      out.push_back(std::move(wrong));

      // Missing (an object member only).
      if (!path.back().key.empty()) {
        Mutation<R> missing{where + " missing", document};
        Path parent(path.begin(), path.end() - 1);
        at_path(missing.document, parent).as_object().erase(path.back().key);
        out.push_back(std::move(missing));
      }

      if (value.is_int() && !knob) {
        const auto range = int_keys().find(key);
        if (range == int_keys().end()) {
          ADD_FAILURE() << "integer key '" << where
                        << "' is not described in int_keys()";
          continue;
        }
        add_edges(out, base, document, path, where, key, range->second);
      }
      if (value.is_string()) {
        const auto text = text_keys().find(key);
        if (text == text_keys().end()) {
          ADD_FAILURE() << "string key '" << where
                        << "' is not described in text_keys()";
          continue;
        }
        Mutation<R> unknown{where + " = 'zz-unknown'", document};
        at_path(unknown.document, path) = util::Json("zz-unknown");
        unknown.parses = text->second ? 0 : 1;
        const auto setter = surface_.setters.names.find(where);
        if (setter != surface_.setters.names.end()) {
          const std::size_t index = last_index(path);
          unknown.cxx = [set = setter->second, index](R& request) {
            set(request, index, "zz-unknown");
            return true;
          };
        }
        out.push_back(std::move(unknown));
      }
    }

    // Unknown key: ignored by a field list, but a device or backend name
    // in a map, and a knob name in a backend's knob object.
    for (const Path& path : objects) {
      Mutation<R> extra{pattern(path) + " + zz_unknown", document};
      at_path(extra.document, path).as_object()["zz_unknown"] = util::Json(1);
      const bool named =
          !path.empty() && (is_map_key(path.back().key) ||
                            (path.size() >= 2 &&
                             path[path.size() - 2].key == "allocator_config"));
      extra.parses = named ? 0 : 1;
      out.push_back(std::move(extra));
    }
    return out;
  }

  void add_edges(std::vector<Mutation<R>>& out, const R& base,
                 const util::Json& document, const Path& path,
                 const std::string& where, const std::string& key,
                 const IntRange& range) const {
    std::vector<std::int64_t> edges = {range.min, range.max};
    if (range.min > kInt64Min) edges.push_back(range.min - 1);
    if (range.max < kInt64Max) edges.push_back(range.max + 1);
    const auto setter = surface_.setters.ints.find(where);
    for (const std::int64_t edge : edges) {
      Mutation<R> mutation{where + " = " + std::to_string(edge), document};
      bool top_k = false;
      if constexpr (requires { base.refine_all; }) {
        top_k = edge == kMaxGpus && base.refine_all &&
                (key == "max_gpus" || key == "max_gpus_per_job");
        if (top_k) {
          R drawn = base;
          drawn.refine_all = false;
          mutation.label += " top-K";
          mutation.document = with_aliases(drawn.to_json());
        }
      }
      at_path(mutation.document, path) = util::Json(edge);
      const bool inside = edge >= range.min && edge <= range.max;
      mutation.parses = inside ? 1 : 0;
      if (edge < range.min) {
        mutation.fragment = "\"" + key + "\" must be >= " +
                            std::to_string(range.min);
      } else if (edge > range.max) {
        mutation.fragment = "\"" + key + "\" must be <= " +
                            std::to_string(range.max);
      }
      mutation.answer = edge != range.max || range.answer_max;
      if (setter != surface_.setters.ints.end()) {
        const std::size_t index = last_index(path);
        mutation.cxx = [set = setter->second, index, edge, top_k](R& request) {
          if constexpr (requires { request.refine_all; }) {
            if (top_k) request.refine_all = false;
          }
          return set(request, index, edge);
        };
      }
      out.push_back(std::move(mutation));
    }
  }

  /// Run `call` on a fresh service over the shared session; a rejection
  /// must leave the session's miss count where it was.
  Outcome serve(const std::function<util::Json(core::EstimationService&)>& call,
                const std::string& label) {
    core::ServiceOptions options;
    options.threads = 1;
    options.session = session_;
    core::EstimationService service(options);
    const std::size_t misses = session_->misses();
    try {
      return {true, answer_text(call(service))};
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(session_->misses(), misses)
          << label << ": a profile ran before the rejection";
      return {false, error.what()};
    }
  }

  void check(const R& base, const Mutation<R>& mutation) {
    ++tally_.documents;
    const std::string label = surface_.type + " " + mutation.label;
    SCOPED_TRACE(label);

    // Document path.
    Outcome document;
    R parsed;
    try {
      parsed = R::from_json(mutation.document);
      document.accepted = true;
    } catch (const std::invalid_argument& error) {
      document.text = error.what();
    } catch (const std::exception& error) {
      ADD_FAILURE() << "not std::invalid_argument: " << error.what();
      return;
    }
    if (mutation.parses >= 0) {
      EXPECT_EQ(document.accepted, mutation.parses == 1) << document;
    }
    if (!document.accepted && !mutation.fragment.empty()) {
      EXPECT_NE(document.text.find(mutation.fragment), std::string::npos)
          << document.text;
    }
    const bool answer = document.accepted && mutation.answer;
    if (answer) {
      document = serve(
          [&](core::EstimationService& service) {
            return surface_.run(service, parsed);
          },
          label);
    }

    if (answer && document.accepted) ++tally_.answered;
    if (!document.accepted) ++tally_.rejected;

    // C++ path.
    if (mutation.cxx) {
      R request = base;
      if (mutation.cxx(request)) {
        ++tally_.cxx;
        Outcome cxx;
        if (answer || !document.accepted) {
          cxx = serve(
              [&](core::EstimationService& service) {
                return surface_.run(service, request);
              },
              label);
        } else {
          // Too large to answer: the service's entry check is this round
          // trip, and the request must read back as the document did.
          cxx = {true, ""};
          const std::string bytes = request.to_json().dump();
          EXPECT_EQ(R::from_json(util::Json::parse(bytes)).to_json().dump(),
                    bytes);
          EXPECT_EQ(bytes, parsed.to_json().dump());
        }
        if (!answer && document.accepted) {
          EXPECT_TRUE(cxx.accepted);
        } else {
          EXPECT_EQ(cxx, document);
        }
      }
    }

    // The server, for every document it can answer quickly.
    if (document.accepted && !answer) return;
    ++tally_.remote;
    Outcome remote;
    try {
      remote = {true, answer_text(surface_.remote(client_, mutation.document))};
    } catch (const server::RequestError& error) {
      EXPECT_EQ(error.code(), server::kErrBadRequest) << error.what();
      const std::string prefix = error.code() + ": ";
      remote = {false, std::string(error.what()).substr(prefix.size())};
    }
    EXPECT_EQ(remote, document);
  }

  Surface<R> surface_;
  server::Client& client_;
  std::shared_ptr<core::ProfileSession> session_;
  Tally tally_;
};

template <typename R>
void expect_coverage(const Campaign<R>& campaign) {
  const auto& tally = campaign.tally();
  EXPECT_GT(tally.documents, 100u);
  EXPECT_GT(tally.answered, 20u);
  EXPECT_GT(tally.rejected, 50u);
  EXPECT_GT(tally.cxx, 20u);
  EXPECT_GT(tally.remote, 70u);
  std::printf("%zu documents: %zu answered, %zu rejected, %zu with a C++ "
              "request, %zu sent to the server\n",
              tally.documents, tally.answered, tally.rejected, tally.cxx,
              tally.remote);
}

class RequestFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    server::ServerConfig config;
    config.socket_path =
        "/tmp/xmem_fuzz_" + std::to_string(::getpid()) + ".sock";
    config.workers = 2;
    server_ = std::make_unique<server::Server>(config);
    server_->start();
    client_ = std::make_unique<server::Client>(config.socket_path,
                                               /*timeout_ms=*/120000);
  }

  void TearDown() override {
    client_->ping();  // the daemon survived the campaign
    client_.reset();
    server_->stop();
  }

  std::unique_ptr<server::Server> server_;
  std::unique_ptr<server::Client> client_;
};

constexpr int kDrawsPerType = 4;

TEST_F(RequestFuzz, SweepDocumentsAndCxxRequestsAgree) {
  Campaign<core::EstimateRequest> campaign(
      {"sweep",
       [](core::EstimationService& service, const core::EstimateRequest& r) {
         return service.sweep(r).to_json(/*include_timings=*/false);
       },
       [](server::Client& client, const util::Json& document) {
         return client.sweep(document);
       },
       sweep_setters()},
      *client_);
  util::Rng rng(41);
  for (int i = 0; i < kDrawsPerType; ++i) campaign.run(draw_sweep(rng));
  expect_coverage(campaign);
}

TEST_F(RequestFuzz, PlanDocumentsAndCxxRequestsAgree) {
  Campaign<core::PlanRequest> campaign(
      {"plan",
       [](core::EstimationService& service, const core::PlanRequest& r) {
         return service.plan(r).to_json(/*include_timings=*/false);
       },
       [](server::Client& client, const util::Json& document) {
         return client.plan(document);
       },
       plan_setters()},
      *client_);
  util::Rng rng(42);
  for (int i = 0; i < kDrawsPerType; ++i) campaign.run(draw_plan(rng));
  expect_coverage(campaign);
}

TEST_F(RequestFuzz, FleetDocumentsAndCxxRequestsAgree) {
  Campaign<sched::FleetRequest> campaign(
      {"fleet",
       [](core::EstimationService& service, const sched::FleetRequest& r) {
         return service.fleet(r).to_json(/*include_timings=*/false);
       },
       [](server::Client& client, const util::Json& document) {
         return client.fleet(document);
       },
       fleet_setters()},
      *client_);
  util::Rng rng(43);
  for (int i = 0; i < kDrawsPerType; ++i) campaign.run(draw_fleet(rng));
  expect_coverage(campaign);
}

}  // namespace
}  // namespace xmem
