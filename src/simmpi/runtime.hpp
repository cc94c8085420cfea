// The simulated MPI runtime: every rank is a fiber, all of a job's ranks
// run cooperatively on the thread that calls run(), each with its own
// mailbox and statistics. Substitutes the paper's real MPI machines
// (JUQUEEN, Lichtenberg) for requirement measurement — the counted metrics
// (bytes, messages) are architecture independent, which is the paper's own
// premise.
//
// Scheduling: ranks start in rank order and run until they finish or block
// in a receive whose message has not arrived; the scheduler then switches
// to the next runnable rank. A send to a rank blocked on a matching
// (source, tag) makes it runnable again. One job never uses more than one
// thread; concurrent jobs on different threads (the campaign's TaskDag
// spreads grid points over a pool) share nothing.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/stats.hpp"
#include "support/error.hpp"

namespace exareq::simmpi {

namespace detail {
class Context;
}  // namespace detail

/// Thrown out of a receive in every surviving rank once the job is
/// aborted — because another rank threw, or because every live rank was
/// blocked — so the survivors unwind instead of waiting forever.
class RankAborted : public Error {
 public:
  using Error::Error;
};

/// Per-rank entry point.
using RankFunction = std::function<void(Communicator&)>;

/// Shared state of one job: mailboxes, counters and the rank scheduler.
class Runtime {
 public:
  explicit Runtime(int size);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int size() const { return size_; }
  Mailbox& mailbox(Rank r);
  CommStats& stats(Rank r);
  const std::vector<CommStats>& all_stats() const { return stats_; }

  /// Queues `envelope` in `dest`'s mailbox and makes `dest` runnable if it
  /// is blocked waiting for exactly this message.
  void deliver(Rank dest, Envelope envelope);

  /// The earliest envelope in `self`'s mailbox matching (source, tag); if
  /// none is queued, runs other ranks until one arrives. Throws RankAborted
  /// once the job is aborted.
  Envelope receive(Rank self, Rank source, Tag tag);

  /// Lets the other runnable ranks run before `self` continues (used by
  /// probe, so a rank polling for a message cannot starve its sender).
  void yield(Rank self);

  /// Runs `rank_function` once per rank, as fibers on the calling thread,
  /// until every rank has returned. Rethrows the error of the lowest
  /// failing rank with "rank R: " prefixed to its message (exareq types
  /// preserved, see rethrow_with_prefix); throws Error naming every blocked
  /// rank and the (source, tag) it waits for when all live ranks block.
  /// At most once per Runtime.
  void execute(const RankFunction& rank_function);

 private:
  struct Fiber;
  enum class State { kReady, kBlocked, kDone };

  static void fiber_main();
  void make_ready(Rank r);
  Rank next_ready();
  void switch_away(Rank self);
  void abort_blocked();
  std::string describe_deadlock() const;

  int size_;
  std::vector<Mailbox> mailboxes_;
  std::vector<CommStats> stats_;

  // Scheduler state, live during execute().
  std::unique_ptr<Fiber[]> fibers_;
  std::unique_ptr<Rank[]> ready_;  ///< ring buffer, each rank at most once
  int ready_head_ = 0;
  int ready_count_ = 0;
  Rank current_ = -1;
  int done_ = 0;
  bool aborted_ = false;
  std::string abort_reason_;  ///< why survivors see RankAborted
  const RankFunction* rank_function_ = nullptr;
  std::unique_ptr<detail::Context> origin_;  ///< the context execute() runs on
};

/// Result of a completed job.
struct RunResult {
  std::vector<CommStats> stats;  ///< per-rank communication counters

  std::uint64_t max_bytes_per_rank() const { return max_bytes_total(stats); }
};

/// Largest rank count run() accepts; bigger sizes are rejected to catch
/// runaway configurations.
inline constexpr int kMaxRanks = 4096;

/// Runs `rank_function` on `size` ranks (see Runtime::execute) and returns
/// the collected statistics. `size` must be in [1, kMaxRanks].
///
/// Failure semantics: waiting never hangs a job. If a rank throws, every
/// other rank unwinds with RankAborted at its next receive, and run()
/// rethrows the original error as "rank R: ...". If every live rank is
/// blocked, run() throws an Error listing each rank and the (source, tag)
/// it waits for.
/// Ranks must not communicate from inside a catch handler: the C++ runtime
/// tracks caught exceptions per thread, not per rank.
RunResult run(int size, const RankFunction& rank_function);

}  // namespace exareq::simmpi
