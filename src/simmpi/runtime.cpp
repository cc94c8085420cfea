#include "simmpi/runtime.hpp"

#include <exception>
#include <optional>
#include <utility>

#include "simmpi/fiber.hpp"

namespace exareq::simmpi {
namespace {

/// The job whose fibers run on this thread (the innermost one when a rank
/// runs a job of its own).
thread_local Runtime* t_job = nullptr;

std::string describe_tag(Tag tag) {
  switch (tag) {
    case kTagBarrier: return "barrier";
    case kTagBcast: return "bcast";
    case kTagAllreduce: return "allreduce";
    case kTagReduce: return "reduce";
    case kTagAllgather: return "allgather";
    case kTagAlltoall: return "alltoall";
    case kTagGather: return "gather";
    case kTagScatter: return "scatter";
    case kTagScan: return "scan";
    default: return std::to_string(tag);
  }
}

}  // namespace

struct Runtime::Fiber {
  detail::Context context;
  detail::FiberStack stack;
  State state = State::kReady;
  Rank wait_source = 0;  ///< the receive a blocked rank waits in
  Tag wait_tag = 0;
  std::exception_ptr error;  ///< what the rank threw (RankAborted excluded)
};

Runtime::Runtime(int size) : size_(size) {
  exareq::require(size >= 1, "Runtime: size must be >= 1");
  mailboxes_.resize(static_cast<std::size_t>(size));
  stats_.resize(static_cast<std::size_t>(size));
}

Runtime::~Runtime() = default;

Mailbox& Runtime::mailbox(Rank r) {
  exareq::require(r >= 0 && r < size_, "Runtime::mailbox: rank out of range");
  return mailboxes_[static_cast<std::size_t>(r)];
}

CommStats& Runtime::stats(Rank r) {
  exareq::require(r >= 0 && r < size_, "Runtime::stats: rank out of range");
  return stats_[static_cast<std::size_t>(r)];
}

void Runtime::deliver(Rank dest, Envelope envelope) {
  Mailbox& box = mailbox(dest);
  const bool wakes = fibers_ != nullptr &&
                     fibers_[dest].state == State::kBlocked &&
                     matches(envelope, fibers_[dest].wait_source,
                             fibers_[dest].wait_tag);
  box.put(std::move(envelope));
  if (wakes) make_ready(dest);
}

Envelope Runtime::receive(Rank self, Rank source, Tag tag) {
  Mailbox& box = mailbox(self);
  for (;;) {
    if (aborted_) {
      throw RankAborted("rank " + std::to_string(self) +
                        " aborted: " + abort_reason_);
    }
    if (std::optional<Envelope> envelope = box.take(source, tag)) {
      return std::move(*envelope);
    }
    exareq::require(fibers_ != nullptr && current_ == self,
                    "Runtime::receive: no matching message and no running "
                    "job to wait in");
    Fiber& fiber = fibers_[self];
    fiber.state = State::kBlocked;
    fiber.wait_source = source;
    fiber.wait_tag = tag;
    switch_away(self);
  }
}

void Runtime::yield(Rank self) {
  if (fibers_ == nullptr || current_ != self || ready_count_ == 0) return;
  make_ready(self);
  switch_away(self);
}

void Runtime::make_ready(Rank r) {
  fibers_[r].state = State::kReady;
  ready_[(ready_head_ + ready_count_) % size_] = r;
  ++ready_count_;
}

Rank Runtime::next_ready() {
  if (ready_count_ == 0) return -1;
  const Rank r = ready_[ready_head_];
  ready_head_ = (ready_head_ + 1) % size_;
  --ready_count_;
  return r;
}

void Runtime::switch_away(Rank self) {
  // With no runnable rank left, control returns to execute(), which either
  // finds the job finished or every live rank blocked.
  const Rank next = next_ready();
  current_ = next;
  detail::Context::switch_to(fibers_[self].context,
                             next >= 0 ? fibers_[next].context : *origin_);
}

void Runtime::abort_blocked() {
  for (Rank r = 0; r < size_; ++r) {
    if (fibers_[r].state == State::kBlocked) make_ready(r);
  }
}

std::string Runtime::describe_deadlock() const {
  std::string message =
      "simmpi: deadlock, every live rank is blocked in a receive:";
  const char* separator = " ";
  for (Rank r = 0; r < size_; ++r) {
    const Fiber& fiber = fibers_[r];
    if (fiber.state != State::kBlocked) continue;
    message += separator;
    message += "rank " + std::to_string(r) + " waits for (source " +
               (fiber.wait_source == kAnySource
                    ? std::string("any")
                    : std::to_string(fiber.wait_source)) +
               ", tag " + describe_tag(fiber.wait_tag) + ")";
    separator = "; ";
  }
  return message;
}

void Runtime::fiber_main() {
  Runtime& job = *t_job;
  const Rank self = job.current_;
  Fiber& fiber = job.fibers_[self];
  fiber.context.entered(*job.origin_);
  if (!job.aborted_) {
    try {
      Communicator comm(self, job);
      (*job.rank_function_)(comm);
    } catch (const RankAborted&) {
      // Unwound because of another rank's failure or a deadlock.
    } catch (...) {
      fiber.error = std::current_exception();
    }
  }
  // Outside the handler: a rank must not switch away while the C++ runtime
  // still counts an exception of its as caught.
  if (fiber.error && !job.aborted_) {
    job.aborted_ = true;
    job.abort_reason_ = "rank " + std::to_string(self) + " failed";
    job.abort_blocked();
  }
  fiber.state = State::kDone;
  ++job.done_;
  const Rank next = job.next_ready();
  job.current_ = next;
  detail::Context::exit_to(next >= 0 ? job.fibers_[next].context
                                     : *job.origin_);
}

void Runtime::execute(const RankFunction& rank_function) {
  exareq::require(fibers_ == nullptr && done_ == 0,
                  "Runtime::execute: a runtime runs one job");
  rank_function_ = &rank_function;
  fibers_ = std::make_unique<Fiber[]>(static_cast<std::size_t>(size_));
  ready_ = std::make_unique<Rank[]>(static_cast<std::size_t>(size_));
  origin_ = std::make_unique<detail::Context>();
  for (Rank r = 0; r < size_; ++r) {
    Fiber& fiber = fibers_[r];
    fiber.stack = detail::FiberStack::acquire();
    fiber.context.make(fiber.stack, &Runtime::fiber_main);
    make_ready(r);
  }

  Runtime* const outer = std::exchange(t_job, this);
  std::string deadlock;
  while (done_ < size_) {
    if (ready_count_ == 0) {
      // Every live rank waits for a message no runnable rank can send.
      if (!aborted_) {
        deadlock = describe_deadlock();
        aborted_ = true;
        abort_reason_ = "deadlock";
      }
      abort_blocked();
    }
    const Rank next = next_ready();
    current_ = next;
    detail::Context::switch_to(*origin_, fibers_[next].context);
  }
  t_job = outer;
  current_ = -1;

  std::exception_ptr error;
  Rank failed = -1;
  for (Rank r = 0; r < size_ && !error; ++r) {
    error = fibers_[r].error;
    failed = r;
  }
  fibers_.reset();  // returns the stacks to this thread's pool
  if (!deadlock.empty()) throw Error(deadlock);
  if (error) {
    rethrow_with_prefix(error, "rank " + std::to_string(failed) + ": ");
  }
}

RunResult run(int size, const RankFunction& rank_function) {
  exareq::require(size >= 1 && size <= kMaxRanks,
                  "run: rank count must be in [1, 4096]");
  exareq::require(static_cast<bool>(rank_function), "run: null rank function");

  Runtime runtime(size);
  runtime.execute(rank_function);
  RunResult result;
  result.stats = runtime.all_stats();
  return result;
}

}  // namespace exareq::simmpi
