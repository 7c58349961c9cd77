#include "checks.hpp"

#include <unordered_set>

namespace perfbench {

std::size_t WriteLog::issue(FileId file, std::string content,
                            std::uint64_t tick) {
  const std::size_t index = writes_.size();
  writes_.push_back(Write{file, std::move(content), tick, kNotAcked, false});
  by_file_[file].push_back(index);
  return index;
}

void WriteLog::ack(std::size_t index, std::uint64_t tick) {
  writes_[index].acked_tick = tick;
}

const std::vector<std::size_t>& WriteLog::of_file(FileId file) const {
  static const std::vector<std::size_t> kNone;
  auto it = by_file_.find(file);
  return it == by_file_.end() ? kNone : it->second;
}

std::size_t WriteLog::acked() const {
  std::size_t n = 0;
  for (const Write& w : writes_) n += w.acked_tick != kNotAcked ? 1 : 0;
  return n;
}

namespace {

std::string where(FileId file) { return "file " + std::to_string(file) + ": "; }

/// The contents as a set; a duplicate or a write never issued to `file`
/// is an error.
std::string as_issued_set(const WriteLog& log, FileId file,
                          const Contents& contents,
                          std::unordered_set<std::string_view>& out) {
  std::unordered_set<std::string_view> issued;
  for (const std::size_t i : log.of_file(file)) {
    issued.insert(log.writes()[i].content);
  }
  for (const std::string_view c : contents) {
    if (issued.count(c) == 0) {
      return where(file) + "holds \"" + std::string(c) +
             "\", never issued to it";
    }
    if (!out.insert(c).second) {
      return where(file) + "holds \"" + std::string(c) + "\" twice";
    }
  }
  return {};
}

}  // namespace

std::string check_replica_log(const WriteLog& log, FileId file,
                              const Contents& contents) {
  std::unordered_set<std::string_view> held;
  if (std::string err = as_issued_set(log, file, contents, held);
      !err.empty()) {
    return err;
  }
  for (const std::size_t i : log.of_file(file)) {
    const WriteLog::Write& w = log.writes()[i];
    if (w.acked_tick != WriteLog::kNotAcked && held.count(w.content) == 0) {
      return where(file) + "replica lacks acknowledged write \"" + w.content +
             "\"";
    }
  }
  return {};
}

std::string check_strong_read(const WriteLog& log, FileId file,
                              std::uint64_t tick,
                              const Contents& contents) {
  std::unordered_set<std::string_view> held;
  if (std::string err = as_issued_set(log, file, contents, held);
      !err.empty()) {
    return err;
  }
  std::size_t expected = 0;
  for (const std::size_t i : log.of_file(file)) {
    const WriteLog::Write& w = log.writes()[i];
    const bool before = w.issued_tick < tick && !w.refused;
    if (before) ++expected;
    if (before != (held.count(w.content) > 0)) {
      return where(file) + "strong read " +
             (before ? "misses \"" : "returns later write \"") + w.content +
             "\"";
    }
  }
  if (expected != held.size()) {
    return where(file) + "strong read returns a refused write";
  }
  return {};
}

std::string check_quorum_read(const WriteLog& log, FileId file,
                              std::uint64_t tick,
                              const Contents& contents) {
  std::unordered_set<std::string_view> held;
  if (std::string err = as_issued_set(log, file, contents, held);
      !err.empty()) {
    return err;
  }
  for (const std::size_t i : log.of_file(file)) {
    const WriteLog::Write& w = log.writes()[i];
    if (w.acked_tick < tick && held.count(w.content) == 0) {
      return where(file) + "quorum read misses acknowledged write \"" +
             w.content + "\"";
    }
  }
  return {};
}

std::string check_read_issued(const WriteLog& log, FileId file,
                              const Contents& contents) {
  std::unordered_set<std::string_view> held;
  return as_issued_set(log, file, contents, held);
}

std::string check_fleet(std::uint64_t remote_ops, std::uint64_t replies,
                        std::size_t converged_files, std::size_t files,
                        const Digests& parallel, const Digests& oracle) {
  if (replies != remote_ops) {
    return "fleet: " + std::to_string(replies) + " replies for " +
           std::to_string(remote_ops) + " remote operations";
  }
  if (converged_files != files) {
    return "fleet: " + std::to_string(converged_files) + " of " +
           std::to_string(files) + " files converged";
  }
  if (parallel.size() != oracle.size()) {
    return "fleet: " + std::to_string(parallel.size()) +
           " endpoint digests against " + std::to_string(oracle.size()) +
           " in the threads=1 oracle";
  }
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    if (parallel[i] != oracle[i]) {
      return "fleet: endpoint " + std::to_string(parallel[i].first) +
             " digest differs from the threads=1 oracle";
    }
  }
  return {};
}

}  // namespace perfbench
