/// \file main.cpp
/// \brief The benchmark command: one named workload per invocation.
///
///   perfbench --workload steady_mix|faults_recovery|fleet_parallel
///             --seed N --seconds S --trace 0|1 [--trace-out FILE]
///
/// Untraced (--trace 0): repeats whole rounds of the workload until S wall
/// seconds have passed, then prints the end-to-end metrics.  Simulated
/// metrics come from the first round, and every later round must repeat
/// them exactly.  Peak RSS is the process's high-water mark after the
/// first round.  Every later round runs a chunk of the reference kernel
/// after each slice of its run phase, and throughput is taken at the
/// kernel's nominal speed (see run_s_at_nominal_speed).  Set-up time is the
/// fastest of kColdSetups cold set-ups, each counted from the start of its
/// own process: this process's first round, and child processes started
/// with --setup-only after the rounds.
///
/// Traced (--trace 1): a cold untraced round, then kTracedPairs pairs of
/// an untraced and a traced round; prints the per-layer metrics of the last
/// traced round, the median per-layer self times of the traced rounds, the
/// tracing overhead (median traced run phase against median untraced one),
/// and writes the last traced round's spans to FILE.
///
/// --setup-only 1: one cold set-up of the workload; prints its time from
/// process start, s, and nothing else.
///
/// The last line of standard output is the result as one JSON object.
/// The exit code is 0 when the run completed, whether or not it was correct.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The workload's inputs and measuring budget, from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Where a traced run writes its spans.
  bool setup_only = false;
  std::string program;  ///< This binary, to start the cold set-ups.
};

/// Cold set-ups per run: this process's and those of kColdSetups - 1
/// children.  Each does the same work; one that lands on a core other
/// load slows down takes up to half as long again, so the fastest of
/// them is the steady figure, as for throughput.
constexpr int kColdSetups = 9;
constexpr int kTracedPairs = 3;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"ops_per_s", "ops/s"},
    {"peak_rss_mb", "MB"},      {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},      {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},     {"msgs_per_op", "msgs/op"},
    {"wire_kb_per_op", "KB/op"}, {"converge_ms", "ms"},
};

/// A layer a workload does not exercise reports 0.
const std::vector<MetricSpec> kPerLayer = {
    {"sim.events_per_op", "events/op"},
    {"sim.ns_per_event", "ns"},
    {"sim.self_ms", "ms"},
    {"client.call_us_per_op", "us"},
    {"client.escalated_reads", "count"},
    {"client.self_ms", "ms"},
    {"adapt.decisions", "count"},
    {"adapt.adapted_reads", "count"},
    {"shard.replicate_msgs_per_put", "msgs/put"},
    {"shard.ack_msgs_per_put", "msgs/put"},
    {"shard.ae_msgs_per_op", "msgs/op"},
    {"shard.migrate_msgs", "count"},
    {"shard.membership_call_ms", "ms"},
    {"shard.self_ms", "ms"},
    {"detect.msgs_per_op", "msgs/op"},
    {"overlay.gossip_msgs_per_op", "msgs/op"},
    {"overlay.ransub_msgs_per_op", "msgs/op"},
    {"net.envelopes_per_op", "envelopes/op"},
    {"net.batch_factor", "msgs/envelope"},
    {"net.batch_wait_ms", "ms"},
    {"replica.checkpoint_kb", "KB"},
    {"replica.restart_call_ms", "ms"},
    {"replica.catchup_ms", "ms"},
    {"replica.log_updates_held", "updates"},
    {"replica.self_ms", "ms"},
    {"runtime.remote_ops", "count"},
    {"runtime.remote_op_ms", "ms"},
    {"runtime.conveyor_packets", "count"},
    {"runtime.steals", "count"},
    {"runtime.speedup_vs_1t", "x"},
    {"runtime.self_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

bool parse(int argc, char** argv, RunOptions& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--setup-only") {
      o.setup_only = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// How fast the machine ran during round `r`'s run phase, against the
/// reference kernel's nominal speed: above 1 when it ran faster.
double machine_speed(const RoundResult& r) {
  return ReferenceKernel::kNominalChunkS * r.reference_chunks /
         r.reference_s;
}

/// The run phase's wall time as it would have been with the machine at
/// the reference kernel's nominal speed: each round's run phase scaled by
/// the speed the kernel saw between its slices, and the median over the
/// rounds that ran the kernel.  Every round does the same simulated work.
double run_s_at_nominal_speed(const std::vector<RoundResult>& rounds) {
  std::vector<double> scaled;
  for (const RoundResult& r : rounds) {
    if (r.reference_chunks > 0) scaled.push_back(r.run_s * machine_speed(r));
  }
  return median(scaled);
}

/// One cold set-up in a child process; false when the child failed.
bool child_setup(const RunOptions& o, double& seconds) {
  const std::string cmd = "'" + o.program + "' --workload " + o.workload +
                          " --seed " + std::to_string(o.seed) +
                          " --seconds 1 --trace 0 --setup-only 1";
  FILE* child = popen(cmd.c_str(), "r");
  if (child == nullptr) return false;
  const bool read = std::fscanf(child, "%lf", &seconds) == 1;
  return pclose(child) == 0 && read;
}

int run(const RunOptions& o) {
  const Workload workload = o.workload == "fleet_parallel"
                                ? fleet_workload(o.seed)
                                : cluster_workload(o.workload, o.seed);
  if (!workload.round) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  if (o.setup_only) {
    const double before = seconds_since(process_start());
    std::printf("%.9f\n", before + workload.setup());
    return 0;
  }

  std::vector<RoundResult> rounds;
  const double before_first = seconds_since(process_start());
  const Clock::time_point start = Clock::now();
  rounds.push_back(workload.round(0, nullptr, nullptr));
  // Read before the reference kernel adds its own memory.
  const double rss_mb = peak_rss_mb();
  // Traced runs: one tracer per traced round, and the run phases of the
  // untraced and traced rounds after the cold one.
  std::vector<Tracer> tracers;
  std::vector<double> untraced_s, traced_s;
  if (!o.trace) {
    ReferenceKernel reference;
    do {
      rounds.push_back(workload.round(
          static_cast<std::uint32_t>(rounds.size()), nullptr, &reference));
    } while (seconds_since(start) < o.seconds);
  } else {
    tracers.resize(kTracedPairs);
    for (int p = 0; p < kTracedPairs; ++p) {
      const auto index = static_cast<std::uint32_t>(rounds.size());
      rounds.push_back(workload.round(index, nullptr, nullptr));
      untraced_s.push_back(rounds.back().run_s);
      tracers[p].set_round(index + 1);
      rounds.push_back(workload.round(index + 1, &tracers[p], nullptr));
      traced_s.push_back(rounds.back().run_s);
    }
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    attempted += r.attempted;
    failed += r.failed;
    std::fprintf(stderr, "round %zu: run phase %.3f s, %.0f ops/s", i,
                 r.run_s, static_cast<double>(r.run_ops) / r.run_s);
    if (r.reference_chunks > 0) {
      std::fprintf(stderr, ", machine speed %.3f", machine_speed(r));
    }
    std::fprintf(stderr, "\n");
    for (const std::string& e : r.errors) {
      std::printf("check failed (round %zu): %s\n", i, e.c_str());
      correct = false;
    }
    if (r.sim != rounds[0].sim) {
      std::printf("check failed: round %zu did not repeat round 0's "
                  "simulated metrics\n", i);
      correct = false;
    }
  }

  Values out;
  const std::vector<MetricSpec>& specs = o.trace ? kPerLayer : kEndToEnd;
  if (!o.trace) {
    out = rounds[0].sim;
    std::vector<double> setups = {before_first + rounds[0].setup_s};
    while (setups.size() < kColdSetups) {
      double s = 0.0;
      if (!child_setup(o, s)) {
        std::printf("check failed: a cold set-up in a child process "
                    "failed\n");
        correct = false;
        break;
      }
      setups.push_back(s);
    }
    out["setup_s"] = *std::min_element(setups.begin(), setups.end());
    out["ops_per_s"] = static_cast<double>(rounds[0].run_ops) /
                       run_s_at_nominal_speed(rounds);
    out["peak_rss_mb"] = rss_mb;
  } else {
    for (const MetricSpec& m : kPerLayer) out[m.name] = 0.0;
    // What only the first round measures (the fleet's threads=1 oracle),
    // then everything the last traced round measured.
    for (const auto& [name, value] : rounds[0].layers) out[name] = value;
    for (const auto& [name, value] : rounds.back().layers) out[name] = value;
    for (std::size_t l = 0; l + 1 < kLayers; ++l) {
      std::vector<double> self;
      for (const Tracer& t : tracers) self.push_back(t.self_ms()[l]);
      out[std::string(layer_name(static_cast<Layer>(l))) + ".self_ms"] =
          median(self);
    }
    out["trace.overhead_pct"] =
        100.0 * (median(traced_s) / median(untraced_s) - 1.0);
    const Tracer& last = tracers.back();
    out["trace.spans"] = static_cast<double>(last.spans().size());
    if (!o.trace_out.empty() && !last.write_json(o.trace_out)) {
      std::printf("could not write spans to %s\n", o.trace_out.c_str());
      correct = false;
    }
  }
  for (const MetricSpec& m : specs) {
    double& v = out.at(m.name);
    if (!std::isfinite(v)) {
      std::printf("check failed: metric %s is not a number\n",
                  m.name.c_str());
      correct = false;
      v = 0.0;
    }
    std::printf("%-30s %14.6g %s\n", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("rounds %zu, attempted %llu, failed %llu, correct %s\n",
              rounds.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "yes" : "no");
  print_result(correct, attempted, failed, specs, out);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.program = argv[0];
  if (!perfbench::parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  return perfbench::run(options);
}
