/// \file cluster_workloads.cpp
/// \brief steady_mix and faults_recovery: one ShardedCluster driven by an
///        open-loop OpenLoopEngine through ClientSessions.
///
/// Both workloads share the code below; they differ in shape (see the
/// Shape constants) and in the fault schedule faults_recovery adds.  The
/// deployment's topology and hash ring do not depend on the seed; the seed
/// drives the arrivals, keys and origins and the protocols' own randomness.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checks.hpp"
#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/rng.hpp"
#include "workload/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace idea;
using client::ConsistencyLevel;
using client::OpHandle;
using client::ReadResult;
using client::WriteAck;

struct Shape {
  bool faults = false;
  std::uint32_t endpoints = 0;
  std::uint32_t files = 0;
  double read_rate = 0.0;   ///< Reads per simulated second.
  double write_rate = 0.0;  ///< Writes per simulated second.
  /// Generated operations per round: every round attempts exactly this
  /// many (plus the probe and burst writes), whatever the seed.  The arrivals
  /// expected before load_end exceed it by about seven standard
  /// deviations; later arrivals are not issued.
  std::uint64_t ops = 0;
  /// The run phase ends here, at the same simulated instant for every
  /// seed, so periodic protocol rounds (a 10 s gossip scan, 2 s detection)
  /// fall into it the same number of times.
  SimTime load_end = 0;
};

// Read-heavy (80% reads), Zipf 0.9 over 2000 files, 600 ops per simulated
// second for 20.5 simulated seconds.
constexpr Shape kSteadyMix{false, 32, 2000, 480.0, 120.0, 11500, msec(20500)};
// Write-heavy (60% writes) with w=majority, through a crash, a restart,
// an add and a remove (see the schedule below).
constexpr Shape kFaultsRecovery{true, 32, 2000, 200.0, 300.0, 8300,
                                msec(19500)};

constexpr double kZipf = 0.9;
constexpr SimDuration kSlice = msec(250);
// Convergence is timed after the load over kBursts bursts, each writing
// every kBurstStride-th file.
constexpr FileId kBurstStride = 20;
constexpr int kBursts = 32;
constexpr SimDuration kConvergeLimit = sec(30);

// faults_recovery's schedule.
constexpr NodeId kCrashed = 5;
constexpr NodeId kRemoved = 9;
constexpr SimTime kCrashAt = sec(5);
constexpr SimTime kRestartAt = sec(8);
constexpr SimTime kAddAt = sec(11);
constexpr SimTime kRemoveAt = sec(14);
constexpr SimTime kChangesAt[] = {kCrashAt, kRestartAt, kAddAt, kRemoveAt};
// A w=majority write still waiting for its ack when the agent waiting for
// it is torn down fails: at the crash, those the crashed endpoint
// coordinates (as it should); at the restart, the add and the remove, every
// one whose group is rebuilt, although it reaches every replica (the known
// fault; see check_probes).  Which load writes are in flight at an instant
// depends on the seed, and the share of failed operations must not, so the
// seeded load issues no write in the kQuietBefore before a change, longer
// than any ack takes outside a loss window, and resumes right after it;
// every change checks that no load write is pending.  Instead, 1 ms before
// each change (no ack returns that fast) the benchmark writes every
// kProbeStride-th file and the kTornProbes lowest files whose agent the
// change will tear down: these probe writes are in flight at every change,
// the same ones for every seed, and the torn-down ones fail every round.
constexpr SimDuration kQuietBefore = msec(400);
constexpr FileId kProbeStride = 50;
constexpr std::size_t kTornProbes = 4;
// Loss windows shorter than one resend timeout and at least a second away
// from every membership change: replication resends never give up.
constexpr SimTime kLossAt[] = {msec(2500), msec(6500), msec(9500),
                               msec(12500), msec(16500)};
constexpr SimDuration kLossLength = msec(150);
constexpr SimDuration kCatchupPoll = msec(10);

enum class ReadKind : std::uint8_t {
  kStrong,
  kQuorum,
  kEventual,
  kBounded,
  kAdaptive
};

class ClusterRound {
 public:
  ClusterRound(const Shape& shape, std::uint64_t seed, Tracer* tracer,
               ReferenceKernel* reference)
      : shape_(shape), seed_(seed), tracer_(tracer), reference_(reference) {}

  ClusterRound(const ClusterRound&) = delete;
  ClusterRound& operator=(const ClusterRound&) = delete;
  ~ClusterRound() { teardown(); }

  RoundResult run();
  /// Construct and place the deployment; returns the wall time it took.
  double setup();

 private:
  shard::ShardedClusterConfig config() const;
  std::vector<workload::TenantSpec> tenants() const;
  void schedule_faults();

  void issue(const workload::Op& op);
  /// `load`: issued by the open-loop load (its latency is reported), not
  /// by a convergence burst.  Returns the write's index in the log.
  std::size_t put(NodeId origin, FileId file, bool load);
  void read(NodeId origin, FileId file, std::size_t kind);
  void on_load_end();
  void end_slice();
  void probe(std::size_t change);
  void before_change(std::size_t change);
  void after_change(std::size_t change);
  void note_restart();
  void poll_catchup();
  void check_logs();
  void check_probes();
  void collect(RoundResult& r);
  void teardown();
  void error(std::string what);

  const Shape shape_;
  const std::uint64_t seed_;
  Tracer* const tracer_;
  ReferenceKernel* const reference_;

  std::unique_ptr<shard::ShardedCluster> cluster_;
  std::unique_ptr<client::Client> client_;
  std::vector<client::ClientSession> writers_;  ///< By origin.
  /// Readers by kind, each by origin.
  std::vector<std::vector<client::ClientSession>> readers_;
  std::vector<ReadKind> kinds_;
  std::vector<NodeId> origins_;  ///< Where clients attach.
  std::unique_ptr<workload::OpenLoopEngine> engine_;
  bool closing_ = false;

  // The benchmark's own record of what it did.
  WriteLog log_;
  std::uint64_t tick_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t puts_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::int64_t> read_latency_;
  std::vector<std::int64_t> write_latency_;
  std::unique_ptr<ConvergenceBursts> bursts_;  ///< From the load's end.
  /// Read when the run phase ends: per-operation ratios cover it only.
  MessageCounts at_load_end_;

  // Wall time: the run phase by slice, and the benchmark's checking
  // inside it.
  Clock::time_point slice_start_;
  double bench_at_slice_ = 0.0;
  double run_s_ = 0.0;
  double reference_s_ = 0.0;
  std::uint32_t reference_chunks_ = 0;
  std::uint64_t run_ops_ = 0;   ///< Completed in the run phase.
  std::uint64_t run_puts_ = 0;  ///< Writes issued in the run phase.
  double bench_s_ = 0.0;

  // faults_recovery: what the restarted endpoint must catch up to.
  std::vector<std::pair<FileId, std::vector<replica::UpdateKey>>> owed_;
  SimTime caught_up_at_ = -1;
  /// Load writes not yet known to be settled; none may be at a change.
  std::vector<OpHandle<WriteAck>> open_loads_;
  /// A write issued 1 ms before change `change`.
  struct Probe {
    std::size_t change = 0;
    std::size_t index = 0;  ///< In the write log.
    std::vector<NodeId> members_before;
    NodeId coordinator_before = 0;
    /// The change tore down the agent waiting for the write's acks.
    bool torn = false;
  };
  std::vector<Probe> probes_;
};

/// Times the benchmark's own work inside the run phase, so it can be
/// subtracted from the program's wall time, and charges it to no layer.
class BenchWork {
 public:
  BenchWork(double& total, Tracer* tracer)
      : total_(total), scope_(tracer, Layer::kBench, "check"),
        start_(Clock::now()) {}
  ~BenchWork() { total_ += seconds_since(start_); }
  BenchWork(const BenchWork&) = delete;
  BenchWork& operator=(const BenchWork&) = delete;

 private:
  double& total_;
  Tracer::Scope scope_;
  Clock::time_point start_;
};

shard::ShardedClusterConfig ClusterRound::config() const {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = shape_.endpoints;
  cfg.replication = 3;
  cfg.seed = seed_;
  cfg.transport.seed = mix64(seed_ ^ 0x7A11ull);
  cfg.anti_entropy_period = msec(500);
  cfg.replication_resend_timeout = msec(250);
  cfg.sync_sizes();
  cfg.idea.maxima = vv::TripleMaxima{100, 100, 100};
  cfg.idea.controller.mode = core::AdaptiveMode::kOnDemand;
  cfg.idea.controller.hint = 0.0;
  cfg.idea.detection_period = sec(2);
  if (shape_.faults) {
    cfg.checkpoint.engine = replica::CheckpointEngineKind::kIncremental;
    cfg.checkpoint.period = sec(1);
  } else {
    cfg.adapt.enabled = true;
  }
  return cfg;
}

std::vector<workload::TenantSpec> ClusterRound::tenants() const {
  workload::TenantSpec readers;
  readers.name = "readers";
  readers.keys = shape_.files;
  readers.read_fraction = 1.0;
  readers.rate = {{0, shape_.read_rate}};
  readers.zipf = {{0, kZipf}};
  readers.origins = origins_;

  workload::TenantSpec writers = readers;
  writers.name = "writers";
  writers.read_fraction = 0.0;
  writers.rate = {{0, shape_.write_rate}};
  if (shape_.faults) {
    writers.rate.clear();
    SimTime resume = 0;
    for (const SimTime at : kChangesAt) {
      writers.rate.push_back({resume, shape_.write_rate});
      writers.rate.push_back({at - kQuietBefore, 0.0});
      resume = at + 1;
    }
    writers.rate.push_back({resume, shape_.write_rate});
  }
  return {readers, writers};
}

double ClusterRound::setup() {
  const Clock::time_point start = Clock::now();
  {
    Tracer::Scope s(tracer_, Layer::kShard, "construct");
    cluster_ = std::make_unique<shard::ShardedCluster>(config());
  }
  {
    Tracer::Scope s(tracer_, Layer::kShard, "place");
    cluster_->place(1, shape_.files);
  }
  client_ = std::make_unique<client::Client>(*cluster_);
  for (NodeId n = 0; n < shape_.endpoints; ++n) {
    // Clients attach only at endpoints that stay up the whole round.
    if (shape_.faults && (n == kCrashed || n == kRemoved)) continue;
    origins_.push_back(n);
  }
  const client::WriteConcern concern = shape_.faults
                                           ? client::WriteConcern::majority()
                                           : client::WriteConcern::one();
  kinds_ = shape_.faults
               ? std::vector<ReadKind>{ReadKind::kQuorum, ReadKind::kBounded}
               : std::vector<ReadKind>{ReadKind::kStrong, ReadKind::kQuorum,
                                       ReadKind::kEventual, ReadKind::kBounded,
                                       ReadKind::kAdaptive};
  writers_.reserve(shape_.endpoints);
  readers_.resize(kinds_.size());
  for (NodeId o = 0; o < shape_.endpoints; ++o) {
    client::SessionOptions opt;
    opt.write_concern = concern;
    opt.origin = o;
    writers_.push_back(client_->session(opt));
  }
  const SimDuration max_age = shape_.faults ? sec(1) : msec(500);
  const ConsistencyLevel bounded =
      ConsistencyLevel::bounded_staleness(2, max_age);
  for (std::size_t k = 0; k < kinds_.size(); ++k) {
    readers_[k].reserve(shape_.endpoints);
    for (NodeId o = 0; o < shape_.endpoints; ++o) {
      client::SessionOptions opt;
      opt.origin = o;
      switch (kinds_[k]) {
        case ReadKind::kStrong:
          opt.level = ConsistencyLevel::strong();
          break;
        case ReadKind::kQuorum:
          opt.level = ConsistencyLevel::quorum();
          break;
        case ReadKind::kEventual:
          opt.level = ConsistencyLevel::eventual_nearest();
          break;
        case ReadKind::kBounded:
          opt.level = bounded;
          break;
        case ReadKind::kAdaptive:
          opt.level = bounded;
          opt.adaptive = true;
          opt.tenant = 1;
          opt.declare_slo = o == 0;
          opt.slo = adapt::Slo{2, msec(80)};
          break;
      }
      readers_[k].push_back(client_->session(opt));
    }
  }
  engine_ = std::make_unique<workload::OpenLoopEngine>(
      cluster_->sim(),
      workload::EngineOptions{msec(10), shape_.load_end,
                              mix64(seed_ ^ 0xE4A1ull)},
      tenants(), [this](const workload::Op& op) { issue(op); });
  cluster_->sim().schedule_at(shape_.load_end, [this] { on_load_end(); });
  if (shape_.faults) schedule_faults();
  return seconds_since(start);
}

void ClusterRound::schedule_faults() {
  net::SimTransport& wire = cluster_->transport();
  for (const SimTime at : kLossAt) wire.add_drop_window(at, at + kLossLength);
  sim::Simulator& sim = cluster_->sim();
  for (std::size_t c = 0; c < std::size(kChangesAt); ++c) {
    sim.schedule_at(kChangesAt[c] - msec(1), [this, c] { probe(c); });
  }
  sim.schedule_at(kCrashAt, [this] {
    before_change(0);
    {
      Tracer::Scope s(tracer_, Layer::kReplica, "crash_endpoint");
      cluster_->crash_endpoint(kCrashed);
    }
    after_change(0);
  });
  sim.schedule_at(kRestartAt, [this] {
    before_change(1);
    {
      Tracer::Scope s(tracer_, Layer::kReplica, "restart_endpoint");
      cluster_->restart_endpoint(kCrashed);
    }
    after_change(1);
    note_restart();
  });
  sim.schedule_at(kAddAt, [this] {
    before_change(2);
    {
      Tracer::Scope s(tracer_, Layer::kShard, "add_endpoint");
      cluster_->add_endpoint();
    }
    after_change(2);
  });
  sim.schedule_at(kRemoveAt, [this] {
    before_change(3);
    {
      Tracer::Scope s(tracer_, Layer::kShard, "remove_endpoint");
      cluster_->remove_endpoint(kRemoved);
    }
    after_change(3);
  });
}

void ClusterRound::probe(std::size_t change) {
  // The agents the change will tear down, with a copy of the hash ring:
  // the crash those the crashed endpoint coordinates, the restart every
  // group of the restarted endpoint, the add and the remove the groups
  // whose members change.
  shard::HashRing ring = cluster_->ring();
  if (change == 2) ring.add_node(shape_.endpoints);
  if (change == 3) ring.remove_node(kRemoved);
  std::vector<FileId> files;
  std::size_t torn = 0;
  for (FileId f = 1; f <= shape_.files; ++f) {
    const std::vector<NodeId>& members = *cluster_->members_of(f);
    bool tears = false;
    if (change == 0) {
      tears = cluster_->coordinator_endpoint(f) == kCrashed;
    } else if (change == 1) {
      tears = std::find(members.begin(), members.end(), kCrashed) !=
              members.end();
    } else {
      tears = ring.replicas(f, static_cast<std::uint32_t>(members.size())) !=
              members;
    }
    if ((tears && torn++ < kTornProbes) || f % kProbeStride == 1) {
      files.push_back(f);
    }
  }
  for (const FileId f : files) {
    Probe p;
    p.change = change;
    p.members_before = *cluster_->members_of(f);
    p.coordinator_before = cluster_->coordinator_endpoint(f);
    p.index = put(origins_[f % origins_.size()], f, false);
    probes_.push_back(std::move(p));
  }
}

void ClusterRound::before_change(std::size_t change) {
  BenchWork work(bench_s_, tracer_);
  std::erase_if(open_loads_, [](const OpHandle<WriteAck>& h) {
    return h.resolved();
  });
  if (!open_loads_.empty()) {
    error(std::to_string(open_loads_.size()) +
          " load writes were in flight at membership change " +
          std::to_string(change));
  }
}

void ClusterRound::after_change(std::size_t change) {
  BenchWork work(bench_s_, tracer_);
  for (Probe& p : probes_) {
    if (p.change != change) continue;
    const FileId file = log_.writes()[p.index].file;
    const std::vector<NodeId>& now = *cluster_->members_of(file);
    // crash_endpoint tears down the crashed endpoint's agents;
    // restart_endpoint rebuilds every group of the restarted endpoint, add
    // and remove the groups whose members change.
    p.torn = change == 0
                 ? p.coordinator_before == kCrashed
                 : now != p.members_before ||
                       (change == 1 && std::find(now.begin(), now.end(),
                                                 kCrashed) != now.end());
  }
}

std::string content_for(std::uint64_t index, FileId file) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "w%09" PRIu64 ".f%07u", index,
                static_cast<unsigned>(file));
  return buf;
}

void ClusterRound::issue(const workload::Op& op) {
  if (generated_ >= shape_.ops) return;
  ++generated_;
  const FileId file = 1 + static_cast<FileId>(op.key);
  if (op.is_read) {
    read(op.origin, file, op.index % kinds_.size());
  } else {
    put(op.origin, file, true);
  }
}

std::size_t ClusterRound::put(NodeId origin, FileId file, bool load) {
  ++attempted_;
  ++puts_;
  std::string content = content_for(puts_, file);
  const std::size_t index = log_.issue(file, content, ++tick_);
  OpHandle<WriteAck> h;
  {
    Tracer::Scope s(tracer_, Layer::kClient, "put");
    h = writers_[origin].put(file, std::move(content), 1.0);
  }
  if (!h.value().applied) log_.refuse(index);
  if (load && shape_.faults && !h.resolved()) open_loads_.push_back(h);
  h.on_complete([this, index, load](const OpHandle<WriteAck>& done) {
    if (closing_) return;
    if (done.ok()) {
      log_.ack(index, ++tick_);
      if (load) write_latency_.push_back(done.latency());
    } else {
      ++failed_;
      // Probe writes at a membership change fail by design; see
      // check_probes.
      if (!load) return;
      std::fprintf(stderr,
                   "note: write \"%s\" failed at %.3f s (acks=%u)\n",
                   log_.writes()[index].content.c_str(),
                   to_sec(cluster_->sim().now()), done.value().acks);
    }
  });
  return index;
}

void ClusterRound::read(NodeId origin, FileId file, std::size_t kind) {
  ++attempted_;
  const std::uint64_t tick = ++tick_;
  OpHandle<ReadResult> h;
  {
    Tracer::Scope s(tracer_, Layer::kClient, "read");
    h = readers_[kind][origin].read(file);
  }
  if (!h.ok()) {
    ++failed_;
    return;
  }
  read_latency_.push_back(h.value().latency);
  BenchWork work(bench_s_, tracer_);
  Contents contents;
  contents.reserve(h.value().updates->size());
  for (const replica::Update& u : *h.value().updates) {
    contents.push_back(u.content);
  }
  std::string err;
  switch (kinds_[kind]) {
    case ReadKind::kStrong:
      err = check_strong_read(log_, file, tick, contents);
      break;
    case ReadKind::kQuorum:
      err = check_quorum_read(log_, file, tick, contents);
      break;
    default:
      err = check_read_issued(log_, file, contents);
      break;
  }
  if (!err.empty()) error(std::move(err));
}

void ClusterRound::on_load_end() {
  if (generated_ < shape_.ops) {
    error("the engine generated only " + std::to_string(generated_) + " of " +
          std::to_string(shape_.ops) + " operations");
  }
  end_slice();
  run_ops_ = attempted_ - failed_;
  run_puts_ = puts_;
  at_load_end_ = count_messages(*cluster_);
  std::vector<FileId> written, all;
  for (FileId f = 1; f <= shape_.files; ++f) {
    if (f % kBurstStride == 1) written.push_back(f);
    all.push_back(f);
  }
  bursts_ = std::make_unique<ConvergenceBursts>(
      *cluster_, std::move(written), kBursts,
      [this](FileId f) { put(origins_[f % origins_.size()], f, false); },
      tracer_);
  // The load may have left any file behind.
  bursts_->start(std::move(all));
}

void ClusterRound::end_slice() {
  run_s_ += seconds_since(slice_start_) - (bench_s_ - bench_at_slice_);
}

void ClusterRound::note_restart() {
  BenchWork work(bench_s_, tracer_);
  // What the group held at the restart: every update some live member had.
  for (FileId f = 1; f <= shape_.files; ++f) {
    const std::vector<NodeId>* members = cluster_->members_of(f);
    bool hosted = false;
    for (const NodeId m : *members) hosted = hosted || m == kCrashed;
    if (!hosted) continue;
    std::vector<replica::UpdateKey> keys;
    for (const NodeId m : *members) {
      if (m == kCrashed) continue;
      core::IdeaNode* node = cluster_->replica(f, m);
      if (node == nullptr) continue;
      for (const auto& [key, update] : node->store().log()) {
        keys.push_back(key);
      }
    }
    owed_.emplace_back(f, std::move(keys));
  }
  poll_catchup();
}

void ClusterRound::poll_catchup() {
  {
    BenchWork work(bench_s_, tracer_);
    std::vector<std::pair<FileId, std::vector<replica::UpdateKey>>> still;
    for (auto& [file, keys] : owed_) {
      core::IdeaNode* node = cluster_->replica(file, kCrashed);
      bool all = node != nullptr;
      for (std::size_t i = 0; all && i < keys.size(); ++i) {
        all = node->store().has(keys[i]);
      }
      if (!all) still.emplace_back(file, std::move(keys));
    }
    owed_.swap(still);
  }
  if (owed_.empty()) {
    caught_up_at_ = cluster_->sim().now();
    return;
  }
  cluster_->sim().schedule_at(cluster_->sim().now() + kCatchupPoll,
                              [this] { poll_catchup(); });
}

void ClusterRound::check_logs() {
  for (FileId f = 1; f <= shape_.files; ++f) {
    const std::vector<NodeId>* members = cluster_->members_of(f);
    if (members == nullptr) {
      error("file " + std::to_string(f) + " is not placed");
      continue;
    }
    for (const NodeId m : *members) {
      core::IdeaNode* node = cluster_->replica(f, m);
      if (node == nullptr) {
        error("file " + std::to_string(f) + ": no replica on endpoint " +
              std::to_string(m));
        continue;
      }
      Contents contents;
      for (const auto& [key, update] : node->store().log()) {
        contents.push_back(update.content);
      }
      std::string err = check_replica_log(log_, f, contents);
      if (!err.empty()) error(std::move(err) + " (endpoint " +
                              std::to_string(m) + ")");
    }
  }
}

void ClusterRound::check_probes() {
  std::size_t issued[std::size(kChangesAt)] = {};
  std::size_t failed[std::size(kChangesAt)] = {};
  for (const Probe& p : probes_) {
    const WriteLog::Write& w = log_.writes()[p.index];
    ++issued[p.change];
    if (w.acked_tick != WriteLog::kNotAcked) continue;
    ++failed[p.change];
    // Only a change that tore down the agent waiting for the acks may fail
    // a write in flight...
    if (!p.torn) {
      error("write \"" + w.content + "\" in flight at membership change " +
            std::to_string(p.change) + " failed, though its agent was not "
            "torn down");
      continue;
    }
    // ...a crashed coordinator may have lost it...
    if (p.change == 0) continue;
    // ...and after a rebuild the write, reported failed, must still reach
    // every replica.
    for (const NodeId m : *cluster_->members_of(w.file)) {
      bool held = false;
      for (const auto& [key, u] :
           cluster_->replica(w.file, m)->store().log()) {
        held = held || u.content == w.content;
      }
      if (!held) {
        error("write \"" + w.content + "\" in flight at membership change " +
              std::to_string(p.change) + " is missing on endpoint " +
              std::to_string(m));
      }
    }
  }
  if (tracer_ != nullptr) {
    for (std::size_t c = 0; c < std::size(kChangesAt); ++c) {
      std::fprintf(stderr, "note: membership change %zu: %zu of %zu probe "
                   "writes failed\n", c, failed[c], issued[c]);
    }
  }
}

void ClusterRound::error(std::string what) {
  // One line per kind of failure is enough to diagnose; keep the count.
  if (errors_.size() < 20) errors_.push_back(std::move(what));
}

RoundResult ClusterRound::run() {
  RoundResult r;
  r.setup_s = setup();

  engine_->start();
  const SimTime limit = shape_.load_end + kConvergeLimit;
  sim::Simulator& sim = cluster_->sim();
  auto converged = [this] { return bursts_ != nullptr && bursts_->done(); };
  while (!converged() && sim.now() < limit) {
    // The run phase ends inside the slice that reaches load_end.
    const bool loading = bursts_ == nullptr;
    slice_start_ = Clock::now();
    bench_at_slice_ = bench_s_;
    {
      Tracer::Scope s(tracer_, Layer::kSim, "run_until");
      cluster_->run_until(sim.now() + kSlice);
    }
    if (loading && bursts_ == nullptr) end_slice();
    if (loading && reference_ != nullptr) {
      reference_s_ += reference_->chunk();
      ++reference_chunks_;
    }
  }
  if (!converged()) error("replicas did not converge");
  if (shape_.faults && caught_up_at_ < 0) {
    error("the restarted endpoint did not catch up");
  }
  // Writes still waiting on acks resolve before the logs are checked.
  {
    Tracer::Scope s(tracer_, Layer::kSim, "run_until");
    cluster_->run_for(sec(2));
  }
  check_logs();
  check_probes();
  collect(r);
  return r;
}

void ClusterRound::collect(RoundResult& r) {
  r.run_s = run_s_;
  r.reference_s = reference_s_;
  r.reference_chunks = reference_chunks_;
  r.run_ops = run_ops_;
  r.attempted = attempted_;
  r.failed = failed_;
  r.errors = errors_;
  const double done = static_cast<double>(run_ops_);
  const MessageCounts& k = at_load_end_;

  r.sim["read_p50_ms"] = quantile(read_latency_, 0.50) / 1000.0;
  r.sim["read_p99_ms"] = quantile(read_latency_, 0.99) / 1000.0;
  r.sim["write_p50_ms"] = quantile(write_latency_, 0.50) / 1000.0;
  r.sim["write_p99_ms"] = quantile(write_latency_, 0.99) / 1000.0;
  r.sim["msgs_per_op"] = static_cast<double>(k.logical) / done;
  r.sim["wire_kb_per_op"] = static_cast<double>(k.wire_bytes) / 1024.0 / done;
  r.sim["converge_ms"] =
      static_cast<double>(bursts_->total()) / kBursts / 1000.0;

  Values& l = r.layers;
  set_message_layers(l, k, done, static_cast<double>(run_puts_));
  std::uint64_t escalated = 0;
  for (const auto& by_origin : readers_) {
    for (const client::ClientSession& session : by_origin) {
      escalated += session.stats().escalated_reads;
    }
  }
  l["client.escalated_reads"] = static_cast<double>(escalated);
  const adapt::ConsistencyController* ctl = cluster_->controller();
  l["adapt.decisions"] =
      ctl == nullptr ? 0.0 : static_cast<double>(ctl->stats().decisions);
  l["adapt.adapted_reads"] =
      static_cast<double>(cluster_->router().stats().adapted_reads);
  l["replica.checkpoint_kb"] =
      static_cast<double>(cluster_->durable_storage().bytes_written()) /
      1024.0;
  if (shape_.faults) {
    l["replica.catchup_ms"] =
        static_cast<double>(caught_up_at_ - kRestartAt) / 1000.0;
  }
  std::uint64_t held = 0;
  for (FileId f = 1; f <= shape_.files; ++f) {
    for (const NodeId m : *cluster_->members_of(f)) {
      if (core::IdeaNode* node = cluster_->replica(f, m)) {
        held += node->store().update_count();
      }
    }
  }
  l["replica.log_updates_held"] = static_cast<double>(held);

  if (tracer_ != nullptr) {
    std::size_t put_calls = 0;
    std::size_t read_calls = 0;
    const double call_ms = tracer_->total_ms("put", &put_calls) +
                           tracer_->total_ms("read", &read_calls);
    l["client.call_us_per_op"] =
        1000.0 * call_ms / static_cast<double>(put_calls + read_calls);
    l["sim.ns_per_event"] =
        1e6 * tracer_->self_ms_of("run_until") /
        static_cast<double>(cluster_->sim().events_processed());
    l["shard.membership_call_ms"] = tracer_->total_ms("add_endpoint") +
                                    tracer_->total_ms("remove_endpoint");
    l["replica.restart_call_ms"] = tracer_->total_ms("restart_endpoint");
  }
}

void ClusterRound::teardown() {
  // Tearing groups down fails write concerns still pending; their
  // callbacks must not record into a round that is over.
  closing_ = true;
  engine_.reset();
  readers_.clear();
  writers_.clear();
  client_.reset();
  cluster_.reset();
}

}  // namespace

Workload cluster_workload(const std::string& name, std::uint64_t seed) {
  const Shape* shape = name == "steady_mix"        ? &kSteadyMix
                       : name == "faults_recovery" ? &kFaultsRecovery
                                                   : nullptr;
  if (shape == nullptr) return {};
  return {[shape, seed](std::uint32_t, Tracer* tracer,
                        ReferenceKernel* reference) {
            ClusterRound round(*shape, seed, tracer, reference);
            return round.run();
          },
          [shape, seed] {
            ClusterRound round(*shape, seed, nullptr, nullptr);
            return round.setup();
          }};
}

}  // namespace perfbench
