/// \file fleet_workload.cpp
/// \brief fleet_parallel: runtime::ShardedFleet, 1000 endpoints in 8
///        segments on 2 worker threads, a quarter of the fleet's own
///        operations crossing segments on the conveyor.
///
/// The fleet generates its own open-loop workload from the deployment
/// seed.  Its sessions have no origin, so every one of its operations has
/// modelled latency 0, and it hands out no per-operation handles.  The
/// latency percentiles come from a sample the benchmark adds on every
/// segment: the fleet's own per-operation mix (half Strong reads, half w=1
/// writes, uniform over the files placed on the segment) from sessions
/// attached at the segment's endpoints, at one eighth of the fleet's rate.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "client/session.hpp"
#include "runtime/fleet.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace idea;

constexpr std::uint32_t kEndpoints = 1000;
constexpr std::uint32_t kFiles = 4000;
constexpr std::uint32_t kSegments = 8;
constexpr std::uint32_t kThreads = 2;
constexpr SimDuration kDuration = sec(5);
constexpr SimDuration kSlice = msec(250);
constexpr double kFleetOpsPerEndpoint = 8.0;
constexpr double kSampleOpsPerEndpoint = kFleetOpsPerEndpoint / 8;
// Convergence is timed after the load over kBursts bursts per segment, as in
// the cluster workloads, each writing every kBurstStride-th file of the
// segment.  The first burst also waits for every file of the segment.
constexpr int kBursts = 16;
constexpr std::size_t kBurstStride = 8;
constexpr SimDuration kConvergeLimit = sec(30);

shard::ShardedClusterConfig fleet_config(std::uint64_t seed,
                                         std::uint32_t threads) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = kEndpoints;
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.anti_entropy_period = msec(500);
  cfg.runtime.threads = threads;
  cfg.runtime.segments = kSegments;
  cfg.sync_sizes();
  cfg.idea.maxima = vv::TripleMaxima{100, 100, 100};
  cfg.idea.detection_period = sec(2);
  return cfg;
}

/// The benchmark's latency sample on one segment, and its convergence
/// bursts.  Everything here runs on whichever worker owns the segment's
/// epoch; the pool's barriers order it with the main thread's reads after
/// the run.
class SegmentSample {
 public:
  SegmentSample(shard::ShardedCluster& cluster, std::vector<FileId> files,
                std::uint64_t seed)
      : cluster_(cluster), files_(std::move(files)), rng_(seed),
        client_(cluster),
        bursts_(cluster, every(files_, kBurstStride), kBursts,
                [this](FileId f) { put(f, false); }, nullptr) {
    for (NodeId o = 0; o < cluster.size(); ++o) {
      client::SessionOptions opt;  // The fleet's own: Strong, w=1.
      opt.origin = o;
      sessions_.push_back(client_.session(opt));
    }
    mean_gap_us_ =
        1e6 / (kSampleOpsPerEndpoint * static_cast<double>(cluster.size()));
  }

  SegmentSample(const SegmentSample&) = delete;
  SegmentSample& operator=(const SegmentSample&) = delete;

  /// Schedule the sample's arrivals and, right after the load, the bursts.
  void arm() {
    cluster_.sim().schedule_at(next_gap(), [this] { fire(); });
    cluster_.sim().schedule_at(kDuration + 1,
                               [this] { bursts_.start(files_); });
  }

  [[nodiscard]] const ConvergenceBursts& bursts() const { return bursts_; }

  /// After the run: every replica holds each write the sample saw
  /// acknowledged.
  void check_acked(std::vector<std::string>& errors) const {
    for (const WriteLog::Write& w : log_.writes()) {
      if (w.acked_tick == WriteLog::kNotAcked) continue;
      for (const NodeId m : *cluster_.members_of(w.file)) {
        bool held = false;
        for (const auto& [key, u] :
             cluster_.replica(w.file, m)->store().log()) {
          held = held || u.content == w.content;
        }
        if (!held && errors.size() < 20) {
          errors.push_back("acknowledged write \"" + w.content +
                           "\" is missing on endpoint " + std::to_string(m));
        }
      }
    }
  }

  std::vector<std::int64_t> read_latency;
  std::vector<std::int64_t> write_latency;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   ///< Failed reads and writes, refused ones too.
  std::uint64_t refused = 0;  ///< Writes the router refused.

 private:
  static std::vector<FileId> every(const std::vector<FileId>& files,
                                   std::size_t stride) {
    std::vector<FileId> out;
    for (std::size_t i = 0; i < files.size(); i += stride) {
      out.push_back(files[i]);
    }
    return out;
  }

  SimDuration next_gap() {
    return 1 + static_cast<SimDuration>(rng_.exponential(mean_gap_us_));
  }

  void fire() {
    const SimTime now = cluster_.sim().now();
    if (now >= kDuration) return;
    const FileId file = rng_.pick(files_);
    if (rng_.chance(0.5)) {
      ++attempted;
      const client::OpHandle<client::ReadResult> h = session().read(file);
      if (h.ok()) {
        read_latency.push_back(h.value().latency);
      } else {
        ++failed;
      }
    } else {
      put(file, true);
    }
    cluster_.sim().schedule_at(now + next_gap(), [this] { fire(); });
  }

  client::ClientSession& session() {
    return sessions_[static_cast<std::size_t>(
        rng_.next_below(sessions_.size()))];
  }

  /// `load`: issued by the sample (its latency is reported), not by a
  /// convergence burst.
  void put(FileId file, bool load) {
    ++attempted;
    char buf[24];
    std::snprintf(buf, sizeof buf, "b%09" PRIu64, ++puts_);
    std::string content = buf;
    const std::size_t index = log_.issue(file, content, ++tick_);
    const client::OpHandle<client::WriteAck> h =
        session().put(file, std::move(content), 1.0);
    if (!h.value().applied) {
      log_.refuse(index);
      ++refused;
    }
    h.on_complete(
        [this, index, load](const client::OpHandle<client::WriteAck>& done) {
          if (!done.ok()) {
            ++failed;
            return;
          }
          log_.ack(index, ++tick_);
          if (load) write_latency.push_back(done.latency());
        });
  }

  shard::ShardedCluster& cluster_;
  const std::vector<FileId> files_;
  Rng rng_;
  client::Client client_;
  std::vector<client::ClientSession> sessions_;
  double mean_gap_us_ = 0.0;
  WriteLog log_;
  std::uint64_t tick_ = 0;
  std::uint64_t puts_ = 0;
  ConvergenceBursts bursts_;
};

MessageCounts count_fleet(runtime::ShardedFleet& fleet) {
  MessageCounts k;
  for (std::uint32_t s = 0; s < fleet.segments(); ++s) {
    k += count_messages(fleet.segment(s));
  }
  return k;
}

/// One fleet from construction to convergence.
struct FleetRun {
  std::unique_ptr<runtime::ShardedFleet> fleet;
  std::vector<std::unique_ptr<SegmentSample>> samples;  ///< By segment.
  double setup_s = 0.0;
  double run_s = 0.0;
  double reference_s = 0.0;  ///< Reference chunks after the run's slices.
  std::uint32_t reference_chunks = 0;
  /// Mean time from a convergence burst until every file agrees; -1 when
  /// the replicas did not converge.
  double converge_ms = -1.0;
  std::uint64_t run_ops = 0;  ///< Issued in the run phase.
  /// Counted when the workload ends: per-operation ratios cover the run
  /// phase only.
  MessageCounts at_run_end;
  Digests digests;

  FleetRun() = default;
  FleetRun(FleetRun&&) = default;
  FleetRun& operator=(FleetRun&&) = default;
  ~FleetRun() { reset(); }

  /// Samples hold sessions on the fleet's clusters: they go first.
  void reset() {
    samples.clear();
    fleet.reset();
  }
};

/// Construct the fleet, place its files and install its workload.
FleetRun setup_fleet(std::uint64_t seed, std::uint32_t threads,
                     Tracer* tracer) {
  FleetRun r;
  const Clock::time_point setup_start = Clock::now();
  {
    Tracer::Scope s(tracer, Layer::kRuntime, "construct");
    r.fleet = std::make_unique<runtime::ShardedFleet>(
        fleet_config(seed, threads));
  }
  runtime::ShardedFleet& fleet = *r.fleet;
  {
    Tracer::Scope s(tracer, Layer::kShard, "place");
    fleet.place(1, kFiles);
  }
  std::vector<std::vector<FileId>> files(fleet.segments());
  for (FileId f = 1; f <= kFiles; ++f) {
    files[fleet.segment_of_file(f)].push_back(f);
  }
  for (std::uint32_t s = 0; s < fleet.segments(); ++s) {
    r.samples.push_back(std::make_unique<SegmentSample>(
        fleet.segment(s), std::move(files[s]),
        mix64(seed ^ (0xC11E47ull + s))));
  }
  fleet.set_workload(runtime::FleetWorkloadParams{
      .ops_per_endpoint_per_sec = kFleetOpsPerEndpoint,
      .read_fraction = 0.5,
      .cross_segment_fraction = 0.25,
      .duration = kDuration});
  for (auto& sample : r.samples) sample->arm();
  r.setup_s = seconds_since(setup_start);
  return r;
}

FleetRun run_fleet(std::uint64_t seed, std::uint32_t threads,
                   Tracer* tracer, ReferenceKernel* reference) {
  FleetRun r = setup_fleet(seed, threads, tracer);
  runtime::ShardedFleet& fleet = *r.fleet;
  while (fleet.now() < kDuration) {
    const Clock::time_point start = Clock::now();
    {
      Tracer::Scope s(tracer, Layer::kRuntime, "run_for");
      fleet.run_for(kSlice);
    }
    r.run_s += seconds_since(start);
    if (reference != nullptr) {
      r.reference_s += reference->chunk();
      ++r.reference_chunks;
    }
  }
  r.at_run_end = count_fleet(fleet);

  r.run_ops = fleet.stats().local_ops + fleet.stats().remote_ops;
  for (const auto& sample : r.samples) r.run_ops += sample->attempted;

  auto bursts_done = [&r] {
    for (const auto& sample : r.samples) {
      if (!sample->bursts().done()) return false;
    }
    return true;
  };
  while (!bursts_done() && fleet.now() < kDuration + kConvergeLimit) {
    Tracer::Scope s(tracer, Layer::kRuntime, "run_for");
    fleet.run_for(kSlice);
  }
  if (bursts_done()) {
    SimDuration total = 0;
    for (const auto& sample : r.samples) total += sample->bursts().total();
    r.converge_ms = static_cast<double>(total) /
                    static_cast<double>(kBursts * r.samples.size()) / 1000.0;
  }
  r.digests = fleet.endpoint_digests();
  return r;
}

RoundResult fleet_round(std::uint64_t seed, std::uint32_t index,
                        Tracer* tracer, ReferenceKernel* reference) {
  RoundResult r;
  FleetRun run = run_fleet(seed, kThreads, tracer, reference);
  runtime::ShardedFleet& fleet = *run.fleet;
  r.setup_s = run.setup_s;
  r.run_s = run.run_s;
  r.reference_s = run.reference_s;
  r.reference_chunks = run.reference_chunks;
  r.run_ops = run.run_ops;

  const runtime::FleetStats stats = fleet.stats();
  const MessageCounts& k = run.at_run_end;
  std::uint64_t blocked = 0, puts = 0, held = 0;
  for (std::uint32_t s = 0; s < fleet.segments(); ++s) {
    blocked += fleet.segment(s).router().stats().blocked_writes;
    puts += fleet.segment(s).router().stats().writes;
  }
  for (FileId f = 1; f <= kFiles; ++f) {
    shard::ShardedCluster& c = fleet.segment(fleet.segment_of_file(f));
    for (const NodeId m : *c.members_of(f)) {
      if (core::IdeaNode* node = c.replica(f, m)) {
        held += node->store().update_count();
      }
    }
  }
  std::vector<std::int64_t> read_latency, write_latency;
  r.attempted = stats.local_ops + stats.remote_ops;
  // The routers count refused writes of the fleet and the sample; the
  // sample counts its own refused writes among its failures.
  r.failed = blocked;
  for (const auto& sample : run.samples) {
    r.attempted += sample->attempted;
    r.failed += sample->failed - sample->refused;
    read_latency.insert(read_latency.end(), sample->read_latency.begin(),
                        sample->read_latency.end());
    write_latency.insert(write_latency.end(), sample->write_latency.begin(),
                         sample->write_latency.end());
    sample->check_acked(r.errors);
  }
  const double done = static_cast<double>(run.run_ops);

  r.sim["read_p50_ms"] = quantile(read_latency, 0.50) / 1000.0;
  r.sim["read_p99_ms"] = quantile(read_latency, 0.99) / 1000.0;
  r.sim["write_p50_ms"] = quantile(write_latency, 0.50) / 1000.0;
  r.sim["write_p99_ms"] = quantile(write_latency, 0.99) / 1000.0;
  r.sim["msgs_per_op"] = static_cast<double>(k.logical) / done;
  r.sim["wire_kb_per_op"] = static_cast<double>(k.wire_bytes) / 1024.0 / done;
  r.sim["converge_ms"] = run.converge_ms;

  Values& l = r.layers;
  set_message_layers(l, k, done, static_cast<double>(puts));
  l["replica.log_updates_held"] = static_cast<double>(held);
  l["runtime.remote_ops"] = static_cast<double>(stats.remote_ops);
  l["runtime.remote_op_ms"] =
      stats.replies == 0 ? 0.0
                         : static_cast<double>(stats.remote_latency_total) /
                               static_cast<double>(stats.replies) / 1000.0;
  l["runtime.conveyor_packets"] = static_cast<double>(stats.conveyor.packets);
  l["runtime.steals"] = static_cast<double>(stats.pool.steals);

  if (run.converge_ms < 0) r.errors.push_back("fleet: files did not converge");
  // The threads=1 oracle: the same configuration and seed run inline on
  // one thread.  Checked in the first round of every run, traced or not.
  if (index == 0) {
    const std::size_t converged = fleet.converged_files();
    const Digests parallel = std::move(run.digests);
    run.reset();
    const FleetRun oracle = run_fleet(seed, 1, nullptr, nullptr);
    std::string err = check_fleet(stats.remote_ops, stats.replies, converged,
                                  kFiles, parallel, oracle.digests);
    if (!err.empty()) r.errors.push_back(std::move(err));
    l["runtime.speedup_vs_1t"] = oracle.run_s / run.run_s;
  } else if (stats.replies != stats.remote_ops) {
    r.errors.push_back(check_fleet(stats.remote_ops, stats.replies, kFiles,
                                   kFiles, {}, {}));
  }
  return r;
}

}  // namespace

Workload fleet_workload(std::uint64_t seed) {
  return {[seed](std::uint32_t index, Tracer* tracer,
                 ReferenceKernel* reference) {
            return fleet_round(seed, index, tracer, reference);
          },
          [seed] { return setup_fleet(seed, kThreads, nullptr).setup_s; }};
}

}  // namespace perfbench
