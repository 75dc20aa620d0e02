#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "perf.h"
#include "util/stats.h"

namespace xmem::perf {

const char* Question::type() const {
  switch (kind) {
    case Kind::kSweep: return "sweep";
    case Kind::kPlan: return "plan";
    case Kind::kFleet: return "fleet";
  }
  return "sweep";
}

util::Json Question::document() const {
  switch (kind) {
    case Kind::kSweep: return sweep.to_json();
    case Kind::kPlan: return plan.to_json();
    case Kind::kFleet: return fleet.to_json();
  }
  return util::Json();
}

util::Json Answer::deterministic() const {
  switch (kind) {
    case Kind::kSweep: return strip_cache_counters(sweep.to_json(false));
    case Kind::kPlan: return strip_cache_counters(plan.to_json(false));
    case Kind::kFleet: return strip_cache_counters(fleet.to_json(false));
  }
  return util::Json();
}

Answer ask(core::EstimationService& service, const Question& question) {
  Answer answer;
  answer.kind = question.kind;
  switch (question.kind) {
    case Kind::kSweep: answer.sweep = service.sweep(question.sweep); break;
    case Kind::kPlan: answer.plan = service.plan(question.plan); break;
    case Kind::kFleet: answer.fleet = service.fleet(question.fleet); break;
  }
  return answer;
}

util::Json strip_cache_counters(util::Json report) {
  static const std::set<std::string> kWarmthCounters = {
      "profiles_run", "profile_cache_hits", "replays_run",
      "result_cache_hits"};
  if (report.is_object()) {
    util::JsonObject& members = report.as_object();
    for (auto it = members.begin(); it != members.end();) {
      if (kWarmthCounters.count(it->first) > 0) {
        it = members.erase(it);
      } else {
        it->second = strip_cache_counters(std::move(it->second));
        ++it;
      }
    }
  } else if (report.is_array()) {
    for (util::Json& element : report.as_array()) {
      element = strip_cache_counters(std::move(element));
    }
  }
  return report;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// ---------------------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::string detail)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.detail = std::move(detail);
  span.request = tracer_->request_;
  span.parent = tracer_->open_;
  index_ = tracer_->spans_.size();
  tracer_->open_ = static_cast<std::int64_t>(index_);
  // Read the clock last, so the bookkeeping above is not inside the span.
  span.start_us = tracer_->now_us();
  tracer_->spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[index_];
  span.end_us = tracer_->now_us();
  tracer_->open_ = span.parent;
}

void Tracer::Scope::set_value(std::int64_t value) {
  if (tracer_ != nullptr) tracer_->spans_[index_].value = value;
}

void Tracer::Scope::rename(const char* name) {
  if (tracer_ != nullptr) tracer_->spans_[index_].name = name;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.duration_us() / 1000.0);
  }
  return out;
}

util::Json Tracer::chrome_trace() const {
  util::Json events = util::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    util::Json event = util::Json::object();
    event["name"] = util::Json(span.name);
    const std::string name = span.name;
    event["cat"] = util::Json(name.substr(0, name.find('.')));
    event["ph"] = util::Json("X");
    event["ts"] = util::Json(span.start_us);
    event["dur"] = util::Json(span.duration_us());
    event["pid"] = util::Json(1);
    event["tid"] = util::Json(1);
    util::Json args = util::Json::object();
    args["span"] = util::Json(static_cast<std::int64_t>(i));
    args["parent"] = util::Json(span.parent);
    args["request"] = util::Json(span.request);
    if (span.value != 0) args["value"] = util::Json(span.value);
    if (!span.detail.empty()) args["detail"] = util::Json(span.detail);
    event["args"] = std::move(args);
    events.push_back(std::move(event));
  }
  util::Json trace = util::Json::object();
  trace["traceEvents"] = std::move(events);
  trace["displayTimeUnit"] = util::Json("ms");
  return trace;
}

// ---------------------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  return util::quantile(std::move(values), p / 100.0);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::vector<double> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t count = values.size();
  if (count == 0) return {0.0, 0.0, 0.0};
  if (count == 1) return {values[0], values[0], values[0]};
  // Python's default 'exclusive' method, with its integer arithmetic.
  const std::int64_t n = 4;
  const std::int64_t m = static_cast<std::int64_t>(count) + 1;
  std::vector<double> result;
  for (std::int64_t i = 1; i < n; ++i) {
    std::int64_t j = i * m / n;
    j = std::clamp<std::int64_t>(j, 1, static_cast<std::int64_t>(count) - 1);
    const std::int64_t delta = i * m - j * n;
    const double low = values[static_cast<std::size_t>(j - 1)];
    const double high = values[static_cast<std::size_t>(j)];
    result.push_back((low * static_cast<double>(n - delta) +
                      high * static_cast<double>(delta)) /
                     static_cast<double>(n));
  }
  return result;
}

double cpu_seconds_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double cpu_seconds_of(pid_t pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(file, line);
  // The command name may hold spaces; the fields after its ')' do not.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 1));
  std::string field;
  double ticks = 0.0;
  // utime and stime are fields 14 and 15; field 3 follows the ')'.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream file(pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::size_t worker_threads() {
  const std::size_t hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware, 1, 4);
}

}  // namespace xmem::perf
