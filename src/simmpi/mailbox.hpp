// Per-rank mailbox with (source, tag) matching.
//
// send() is buffered and never blocks (like an eager-protocol MPI_Send),
// which makes the collective algorithms deadlock-free without requiring
// carefully ordered send/recv pairs. Messages from the same (source, tag)
// pair are delivered in FIFO order (MPI's non-overtaking rule).
//
// A mailbox is plain single-threaded state: every rank of a job runs on
// the thread that called simmpi::run, so no lock is needed. Waiting for a
// message that has not arrived is the scheduler's job (Runtime::receive).
#pragma once

#include <deque>
#include <optional>

#include "simmpi/message.hpp"

namespace exareq::simmpi {

/// Wildcard source for receive matching.
inline constexpr Rank kAnySource = -1;

/// True if `envelope` satisfies a receive for (source, tag).
inline bool matches(const Envelope& envelope, Rank source, Tag tag) {
  return (source == kAnySource || envelope.source == source) &&
         envelope.tag == tag;
}

class Mailbox {
 public:
  /// Enqueues an envelope.
  void put(Envelope envelope);

  /// Removes and returns the earliest envelope matching (source, tag), or
  /// nothing if none is queued. A source of kAnySource matches any sender.
  std::optional<Envelope> take(Rank source, Tag tag);

  /// Non-blocking probe: true if a matching envelope is queued.
  bool probe(Rank source, Tag tag) const;

  /// Number of queued envelopes (any source/tag).
  std::size_t pending() const { return queue_.size(); }

 private:
  std::deque<Envelope> queue_;
};

}  // namespace exareq::simmpi
