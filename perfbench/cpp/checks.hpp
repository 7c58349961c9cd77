#pragma once
/// \file checks.hpp
/// \brief Correctness checks the benchmark computes apart from the program.
///
/// The benchmark keeps its own log of every write it issues and of when the
/// client saw each one acknowledged.  The checks compare what the program
/// returned (read results, replica logs, fleet digests) against that log
/// only; none of them asks the program whether it is right.  Each check
/// returns an empty string when it holds and a one-line reason otherwise.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace perfbench {

using idea::FileId;

/// The update contents a replica log or a read returned.
using Contents = std::vector<std::string_view>;

/// Every write the benchmark issued, in issue order.  Positions in the
/// benchmark's own event order ("ticks") let a check ask what had been
/// issued or acknowledged before a read, without comparing sim times that
/// may tie.
class WriteLog {
 public:
  static constexpr std::uint64_t kNotAcked = UINT64_MAX;

  /// Record a write issued at `tick`; returns its index.
  std::size_t issue(FileId file, std::string content, std::uint64_t tick);
  /// The client saw write `index` acknowledged at `tick`.
  void ack(std::size_t index, std::uint64_t tick);
  /// The program refused or failed write `index` at issue time.
  void refuse(std::size_t index) { writes_[index].refused = true; }

  struct Write {
    FileId file = 0;
    std::string content;
    std::uint64_t issued_tick = 0;
    std::uint64_t acked_tick = kNotAcked;
    bool refused = false;
  };

  [[nodiscard]] const std::vector<Write>& writes() const { return writes_; }
  /// Indices of the writes to `file`, in issue order.
  [[nodiscard]] const std::vector<std::size_t>& of_file(FileId file) const;
  [[nodiscard]] std::size_t acked() const;

 private:
  std::vector<Write> writes_;
  std::unordered_map<FileId, std::vector<std::size_t>> by_file_;
};

/// A replica's log of one file must hold every acknowledged write of that
/// file, nothing the benchmark never issued to it, and nothing twice.
std::string check_replica_log(const WriteLog& log, FileId file,
                              const Contents& contents);

/// A static Strong read issued at `tick` must return exactly the writes to
/// the file that were issued (and not refused) before it.
std::string check_strong_read(const WriteLog& log, FileId file,
                              std::uint64_t tick,
                              const Contents& contents);

/// A Quorum read issued at `tick` must hold every write to the file the
/// client saw acknowledged before it, and nothing never issued.
std::string check_quorum_read(const WriteLog& log, FileId file,
                              std::uint64_t tick,
                              const Contents& contents);

/// Any read may return only writes the benchmark issued to that file.
std::string check_read_issued(const WriteLog& log, FileId file,
                              const Contents& contents);

using Digests = std::vector<std::pair<idea::NodeId, std::uint64_t>>;

/// Fleet outcome: every remote operation was answered, every placed file
/// converged, and the endpoint digests equal those of the threads=1
/// oracle run of the same configuration.
std::string check_fleet(std::uint64_t remote_ops, std::uint64_t replies,
                        std::size_t converged_files, std::size_t files,
                        const Digests& parallel, const Digests& oracle);

}  // namespace perfbench
