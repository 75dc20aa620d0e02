// Declarative request codecs: each request type lists its JSON fields once,
// and parsing, emitting and every error message derive from that list.
//
// An entry gives the JSON key, the member, the JSON type (a Codec), the
// allowed range, and whether the output leaves the field out while it
// holds its default. The default itself is the struct's member
// initializer: parsing starts from a default-constructed value and
// overwrites only the keys the document carries (unknown keys are
// ignored). Irregular fields — alias device strings, `"refine_top_k":
// "all"` — are entries with a custom codec in the same list.
//
// A wrong-typed value is an error, never the default, an integer is
// range-checked in int64 before it is narrowed to the member type, and a
// name is checked against its registry (models, allocators, estimators,
// devices, enum spellings):
//   <context>: "<key>" must be an integer | a string | a boolean | ...
//   <context>: "<key>" must be >= <min> | <= <max>
//   <context>: "<key>" names unknown <kind> '<name>' (known: <names>)
//   <context>: missing "<key>"
// Array entries are keyed "<key>[<i>]" and map entries "<key>.<name>"; a
// nested object's context is "<context> <key>" ("request job", "fleet
// request pools[1]", "fleet request headroom per_device.a100").
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/backend_registry.h"
#include "core/estimator_api.h"
#include "gpu/device_model.h"
#include "util/json.h"

namespace xmem::core::fields {

/// Where a value sits in its document, for error messages.
/// Views into strings that outlive the read it is passed to.
struct At {
  std::string_view context;
  std::string_view key;
  std::size_t index = 0;  ///< position of an array entry

  /// Throws std::invalid_argument: `<context>: "<key>" <what>`.
  [[noreturn]] void fail(const std::string& what) const;
  /// fail() with `names unknown <kind> '<name>' (known: <known...>)`.
  [[noreturn]] void fail_unknown(std::string_view kind, const std::string& name,
                                 const std::vector<std::string>& known) const;
  /// The context of a nested object.
  std::string inside() const {
    return std::string(context) + " " + std::string(key);
  }
};

/// How one member type reads from, and writes to, a JSON value.
template <typename M>
struct Codec {
  std::function<M(const util::Json&, const At&)> read;
  std::function<util::Json(const M&)> write;
};

template <typename T>
struct Field {
  std::string key;
  bool required = false;  ///< absent: `<context>: missing "<key>"`
  std::function<void(const util::Json&, T&, const std::string& context)> read;
  /// Sets out[key], unless the field is left out at its default.
  std::function<void(const T&, util::JsonObject& out)> write;
};

template <typename T>
using List = std::vector<Field<T>>;

/// Whether the output keeps a field that holds its default (false, "",
/// or an empty container) or leaves it out.
enum class Emit { kAlways, kUnlessDefault };

/// Read the object `json` into `object`, which holds the defaults.
template <typename T>
void read(const util::Json& json, const List<T>& list, T& object,
          const std::string& context) {
  if (!json.is_object()) {
    throw std::invalid_argument(context + ": must be an object");
  }
  for (const Field<T>& field : list) {
    const auto it = json.as_object().find(field.key);
    if (it != json.as_object().end()) {
      field.read(it->second, object, context);
    } else if (field.required) {
      throw std::invalid_argument(context + ": missing \"" + field.key + "\"");
    }
  }
}

template <typename T>
T parse(const util::Json& json, const List<T>& list,
        const std::string& context) {
  T object;
  read(json, list, object, context);
  return object;
}

template <typename T>
util::Json write(const List<T>& list, const T& object) {
  util::Json json = util::Json::object();
  for (const Field<T>& field : list) field.write(object, json.as_object());
  return json;
}

template <typename M>
bool holds_default(const M& value) {
  if constexpr (requires { value.empty(); }) {
    return value.empty();
  } else if constexpr (std::equality_comparable<M>) {
    return value == M{};
  } else {
    return false;
  }
}

template <typename T, typename M>
Field<T> field(const std::string& key, M T::*ptr,
               std::type_identity_t<Codec<M>> codec,
               Emit emit = Emit::kAlways) {
  return {key, false,
          [key, ptr, from = codec.read](const util::Json& value, T& object,
                                        const std::string& context) {
            object.*ptr = from(value, At{context, key});
          },
          [key, ptr, to = codec.write, emit](const T& object,
                                             util::JsonObject& out) {
            if (emit == Emit::kUnlessDefault && holds_default(object.*ptr)) {
              return;
            }
            out[key] = to(object.*ptr);
          }};
}

template <typename T>
Field<T> required(Field<T> field) {
  field.required = true;
  return field;
}

// --- codecs ----------------------------------------------------------------

std::string read_text(const util::Json& value, const At& at);
Codec<std::string> text();
Codec<bool> boolean();

/// An integer in [min, max], which defaults to the member type's range
/// (capped at int64). Written as int64, so a uint64 member past INT64_MAX
/// writes, and reads back, as a negative number.
template <typename M>
Codec<M> integer(
    std::int64_t min = std::numeric_limits<M>::is_signed
                           ? std::numeric_limits<M>::min()
                           : 0,
    std::int64_t max = static_cast<std::int64_t>(std::min<std::uint64_t>(
        std::numeric_limits<M>::max(),
        std::numeric_limits<std::int64_t>::max()))) {
  return {[min, max](const util::Json& value, const At& at) {
            if (!value.is_int()) at.fail("must be an integer");
            if (value.as_int() < min) {
              at.fail("must be >= " + std::to_string(min));
            }
            if (value.as_int() > max) {
              at.fail("must be <= " + std::to_string(max));
            }
            return static_cast<M>(value.as_int());
          },
          [](const M& value) {
            return util::Json(static_cast<std::int64_t>(value));
          }};
}

/// An enum spelled as a string: `parse_name` reads it, `to_string` writes,
/// and a name it rejects fails listing the spellings of `values`.
template <typename E>
Codec<E> named(std::string kind, E (*parse_name)(const std::string&),
               std::vector<E> values) {
  return {[kind, parse_name, values](const util::Json& value, const At& at) {
            const std::string name = read_text(value, at);
            try {
              return parse_name(name);
            } catch (const std::invalid_argument&) {
              std::vector<std::string> known;
              for (const E option : values) known.push_back(to_string(option));
              at.fail_unknown(kind, name, known);
            }
          },
          [](const E& value) { return util::Json(to_string(value)); }};
}

/// A string naming an entry of the registry whose names are `names()`;
/// `known`, when given, answers membership without building the list.
Codec<std::string> registered(std::string kind,
                              std::vector<std::string> (*names)(),
                              bool (*known)(const std::string&) = nullptr);
Codec<std::string> allocator();
Codec<std::string> estimator();

template <typename S>
Codec<S> object(const List<S>& list) {
  return {[&list](const util::Json& value, const At& at) {
            if (!value.is_object()) at.fail("must be an object");
            return parse(value, list, at.inside());
          },
          [&list](const S& value) { return write(list, value); }};
}

template <typename S>
Codec<std::vector<S>> array(Codec<S> entry, bool non_empty = false) {
  return {[entry, non_empty](const util::Json& value, const At& at) {
            if (!value.is_array() || (non_empty && value.size() == 0)) {
              at.fail(non_empty ? "must be a non-empty array"
                                : "must be an array");
            }
            std::vector<S> entries;
            for (const util::Json& item : value.as_array()) {
              const std::size_t i = entries.size();
              const std::string key =
                  std::string(at.key) + "[" + std::to_string(i) + "]";
              entries.push_back(entry.read(item, At{at.context, key, i}));
            }
            return entries;
          },
          [entry](const std::vector<S>& entries) {
            util::Json json = util::Json::array();
            for (const S& item : entries) json.push_back(entry.write(item));
            return json;
          }};
}

/// An object keyed by name, every value read with `entry`.
template <typename S>
Codec<std::map<std::string, S>> map(Codec<S> entry) {
  return {[entry](const util::Json& value, const At& at) {
            if (!value.is_object()) at.fail("must be an object");
            std::map<std::string, S> entries;
            for (const auto& [name, item] : value.as_object()) {
              const std::string key = std::string(at.key) + "." + name;
              entries[name] = entry.read(item, At{at.context, key});
            }
            return entries;
          },
          [entry](const std::map<std::string, S>& entries) {
            util::Json json = util::Json::object();
            for (const auto& [name, item] : entries) {
              json[name] = entry.write(item);
            }
            return json;
          }};
}

/// `list`'s fields, stored in the sub-struct `ptr` but spelled flat in the
/// parent object.
template <typename T, typename S>
List<T> flatten(S T::*ptr, const List<S>& list) {
  List<T> flat;
  for (const Field<S>& inner : list) {
    flat.push_back(
        {inner.key, inner.required,
         [ptr, inner](const util::Json& value, T& object,
                      const std::string& context) {
           inner.read(value, object.*ptr, context);
         },
         [ptr, inner](const T& object, util::JsonObject& out) {
           inner.write(object.*ptr, out);
         }});
  }
  return flat;
}

// --- the parts every request document spells the same way -----------------

const List<TrainJob>& job_fields();

/// An alias string ("rtx3060"), or an object whose "name" starts from
/// that reference card's geometry when it resolves (so a lone
/// "m_init_bytes" is a what-if against real geometry) and from a blank
/// device otherwise.
Codec<gpu::DeviceModel> device();

/// Backend name -> integer knob object. Each name must be a registered
/// backend, and a throwaway backend built from the knobs checks their
/// names and values with the backend's own message, prefixed by
/// "<context> allocator_config.<backend>: ".
Codec<std::map<std::string, alloc::BackendKnobs>> allocator_configs();

/// A multi-GPU budget ("max_gpus", "max_gpus_per_job"). The plan search
/// enumerates every (d, t, p) split of every GPU count up to it, so the
/// cap keeps one valid question to about half a second of top-4 search.
inline Codec<int> gpu_budget() { return integer<int>(1, 1024); }

/// A byte count of device memory (a card's geometry, a headroom's
/// "absolute_bytes"): at most 2^50 (1 PiB), so a job budget
/// (capacity - m_init - m_fm) or a peak plus headroom stays in int64.
inline Codec<std::int64_t> byte_count(std::int64_t min) {
  return integer<std::int64_t>(min, std::int64_t{1} << 50);
}

template <typename T>
Field<T> job(TrainJob T::*ptr) {
  return required(field("job", ptr, object(job_fields())));
}

template <typename T>
Field<T> devices(std::vector<gpu::DeviceModel> T::*ptr) {
  return required(
      field("devices", ptr, array(device(), /*non_empty=*/true)));
}

template <typename T>
Field<T> allocator_config(
    std::map<std::string, alloc::BackendKnobs> T::*ptr) {
  return field("allocator_config", ptr, allocator_configs(),
               Emit::kUnlessDefault);
}

}  // namespace xmem::core::fields
