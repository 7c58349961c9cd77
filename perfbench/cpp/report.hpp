#pragma once
/// \file report.hpp
/// \brief What every workload shares: wall timing, the span recorder for
///        traced runs, exact percentiles, peak RSS and the result line.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Captured during static initialisation, before main(): set-up time is
/// counted from here.
Clock::time_point process_start();

double seconds_since(Clock::time_point t);

/// Metric values by name.
using Values = std::map<std::string, double>;

/// A metric's name and unit, in report order.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// kBench is the benchmark's own checking, charged to no program layer.
enum class Layer : std::uint8_t {
  kSim,
  kClient,
  kShard,
  kReplica,
  kRuntime,
  kBench
};
inline constexpr std::size_t kLayers = 6;
const char* layer_name(Layer layer);

/// Spans around the benchmark's calls into the program's public functions,
/// kept in memory and written out when the run ends.  A layer's self time
/// is its spans' durations minus what their child spans cover: a put
/// issued from inside run_until is charged to the client, not the
/// simulator.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    Layer layer = Layer::kSim;
    std::int32_t parent = -1;
    std::uint32_t round = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
  };

  /// Opens a span on construction and closes it on destruction; does
  /// nothing when `tracer` is null, so untraced runs pay one branch.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  void set_round(std::uint32_t round) { round_ = round; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time per layer over the spans named `name` (all when empty), ms.
  [[nodiscard]] std::array<double, kLayers> self_ms() const;
  /// Total duration of the spans named `name`, ms, and how many there are.
  [[nodiscard]] double total_ms(const std::string& name,
                                std::size_t* count = nullptr) const;
  [[nodiscard]] double self_ms_of(const std::string& name) const;
  /// Write every span as JSON; false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint32_t round_ = 0;
};

/// Nearest-rank quantile of `samples` (sorted in place).
double quantile(std::vector<std::int64_t>& samples, double q);

/// The process's peak resident set (VmHWM), MB.
double peak_rss_mb();

/// The result line, the last line of standard output: every metric of
/// `specs`, valued from `values`.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<MetricSpec>& specs, const Values& values);

}  // namespace perfbench
