#include "core/request_fields.h"

#include <algorithm>
#include <stdexcept>

#include "core/estimator_registry.h"
#include "core/simulator.h"
#include "models/zoo.h"

namespace xmem::core::fields {

void At::fail(const std::string& what) const {
  throw std::invalid_argument(std::string(context) + ": \"" +
                              std::string(key) + "\" " + what);
}

void At::fail_unknown(std::string_view kind, const std::string& name,
                      const std::vector<std::string>& known) const {
  std::string list;
  for (const std::string& entry : known) {
    if (!list.empty()) list += ", ";
    list += entry;
  }
  fail("names unknown " + std::string(kind) + " '" + name + "' (known: " +
       list + ")");
}

std::string read_text(const util::Json& value, const At& at) {
  if (!value.is_string()) at.fail("must be a string");
  return value.as_string();
}

Codec<std::string> text() {
  return {read_text,
          [](const std::string& value) { return util::Json(value); }};
}

Codec<bool> boolean() {
  return {[](const util::Json& value, const At& at) {
            if (!value.is_bool()) at.fail("must be a boolean");
            return value.as_bool();
          },
          [](const bool& value) { return util::Json(value); }};
}

Codec<std::string> registered(std::string kind,
                              std::vector<std::string> (*names)(),
                              bool (*known)(const std::string&)) {
  return {[kind, names, known](const util::Json& value, const At& at) {
            std::string name = read_text(value, at);
            const bool listed = known != nullptr ? known(name) : [&] {
              const std::vector<std::string> all = names();
              return std::find(all.begin(), all.end(), name) != all.end();
            }();
            if (!listed) at.fail_unknown(kind, name, names());
            return name;
          },
          [](const std::string& value) { return util::Json(value); }};
}

Codec<std::string> allocator() {
  return registered("allocator", alloc::backend_names, alloc::is_known_backend);
}

Codec<std::string> estimator() {
  return registered("estimator", estimator_names, is_known_estimator);
}

const List<TrainJob>& job_fields() {
  using fw::OptimizerKind;
  using fw::ZeroGradPlacement;
  static const List<TrainJob> list = {
      required(field("model", &TrainJob::model_name,
                     registered("model", models::all_model_names,
                                models::is_known_model))),
      required(field("batch", &TrainJob::batch_size, integer<int>(1))),
      field("optimizer", &TrainJob::optimizer,
            named("optimizer", fw::optimizer_from_string,
                  {OptimizerKind::kSgd, OptimizerKind::kAdam,
                   OptimizerKind::kAdamW, OptimizerKind::kRmsprop,
                   OptimizerKind::kAdagrad, OptimizerKind::kAdafactor})),
      field("placement", &TrainJob::placement,
            named("zero_grad placement", fw::placement_from_string,
                  {ZeroGradPlacement::kPos0BeforeBackward,
                   ZeroGradPlacement::kPos1IterStart})),
      // Any JSON integer: derived uint64 seeds write as negative int64.
      field("seed", &TrainJob::seed,
            integer<std::uint64_t>(std::numeric_limits<std::int64_t>::min())),
  };
  return list;
}

namespace {

constexpr const char* kCapacityKey = "capacity_bytes";

const List<gpu::DeviceModel>& device_fields() {
  static const List<gpu::DeviceModel> list = [] {
    // Listed first: a name that resolves swaps in that reference card,
    // whose geometry the other keys then override.
    Field<gpu::DeviceModel> name =
        required(field("name", &gpu::DeviceModel::name, text()));
    name.read = [inner = name.read](const util::Json& value,
                                    gpu::DeviceModel& device,
                                    const std::string& context) {
      inner(value, device, context);
      try {
        device = gpu::device_by_name(device.name);
      } catch (const std::invalid_argument&) {
        // A custom card: its geometry comes only from the document.
      }
    };
    return List<gpu::DeviceModel>{
        name,
        field(kCapacityKey, &gpu::DeviceModel::capacity, byte_count(1)),
        field("m_init_bytes", &gpu::DeviceModel::m_init, byte_count(0)),
        field("m_fm_bytes", &gpu::DeviceModel::m_fm, byte_count(0)),
    };
  }();
  return list;
}

}  // namespace

Codec<gpu::DeviceModel> device() {
  return {[](const util::Json& value, const At& at) {
            if (value.is_string()) {
              try {
                return gpu::device_by_name(value.as_string());
              } catch (const std::invalid_argument&) {
                at.fail_unknown("device", value.as_string(),
                                {"rtx3060", "rtx4060", "a100"});
              }
            }
            if (!value.is_object()) {
              at.fail("must be an alias string or an object");
            }
            const gpu::DeviceModel device =
                parse(value, device_fields(), at.inside());
            if (device.capacity <= 0) {
              throw std::invalid_argument(
                  at.inside() + ": unknown device '" + device.name +
                  "' needs an explicit \"" + kCapacityKey + "\"");
            }
            return device;
          },
          [](const gpu::DeviceModel& device) {
            return write(device_fields(), device);
          }};
}

Codec<std::map<std::string, alloc::BackendKnobs>> allocator_configs() {
  const Codec<std::map<std::string, alloc::BackendKnobs>> parsed =
      map(Codec<alloc::BackendKnobs>{
          [](const util::Json& value, const At& at) {
            return alloc::parse_backend_knobs(value, at.inside());
          },
          [](const alloc::BackendKnobs& knobs) {
            util::Json json = util::Json::object();
            for (const auto& [knob, value] : knobs) {
              json[knob] = util::Json(value);
            }
            return json;
          }});
  return {[read = parsed.read](const util::Json& value, const At& at) {
            std::map<std::string, alloc::BackendKnobs> config = read(value, at);
            for (const auto& [name, knobs] : config) {
              allocator().read(util::Json(name), at);
              try {
                alloc::SimulatedCudaDriver probe(
                    SimulationOptions::kUnboundedCapacity);
                alloc::make_backend(name, probe, knobs);
              } catch (const std::invalid_argument& error) {
                throw std::invalid_argument(at.inside() + "." + name + ": " +
                                            error.what());
              }
            }
            return config;
          },
          parsed.write};
}

}  // namespace xmem::core::fields
