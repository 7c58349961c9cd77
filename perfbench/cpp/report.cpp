#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point process_start() { return kProcessStart; }

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayers] = {
      "sim", "client", "shard", "replica", "runtime", "bench"};
  return kNames[static_cast<std::size_t>(layer)];
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProcessStart)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, Layer layer, const char* name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  s.round = tracer_->round_;
  s.start_ns = tracer_->now_ns();
  tracer_->open_.push_back(static_cast<std::int32_t>(tracer_->spans_.size()));
  tracer_->spans_.push_back(s);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int32_t index = tracer_->open_.back();
  tracer_->open_.pop_back();
  Span& s = tracer_->spans_[static_cast<std::size_t>(index)];
  s.end_ns = tracer_->now_ns();
  if (s.parent >= 0) {
    tracer_->spans_[static_cast<std::size_t>(s.parent)].child_ns +=
        s.end_ns - s.start_ns;
  }
}

std::array<double, kLayers> Tracer::self_ms() const {
  std::array<double, kLayers> out{};
  for (const Span& s : spans_) {
    out[static_cast<std::size_t>(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e6;
  }
  return out;
}

double Tracer::total_ms(const std::string& name, std::size_t* count) const {
  double total = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

double Tracer::self_ms_of(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e6;
    }
  }
  return total;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"round\": " << s.round << ", \"layer\": \""
        << layer_name(s.layer) << "\", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double quantile(std::vector<std::int64_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return static_cast<double>(samples[std::min(index, samples.size() - 1)]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<MetricSpec>& specs, const Values& values) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, values.at(specs[i].name));
    if (i > 0) line += ", ";
    line += "\"" + specs[i].name + "\": {\"value\": " +
            std::string(buf, res.ptr) + ", \"unit\": \"" + specs[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
