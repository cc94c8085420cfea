#include "simmpi/mailbox.hpp"

#include <gtest/gtest.h>

#include "simmpi/runtime.hpp"

namespace exareq::simmpi {
namespace {

Envelope make_envelope(Rank source, Tag tag, std::size_t size) {
  Envelope e;
  e.source = source;
  e.tag = tag;
  e.payload.assign(size, std::byte{42});
  return e;
}

TEST(MailboxTest, PutThenGetMatches) {
  Mailbox box;
  box.put(make_envelope(3, 7, 16));
  const Envelope e = box.take(3, 7).value();
  EXPECT_EQ(e.source, 3);
  EXPECT_EQ(e.tag, 7);
  EXPECT_EQ(e.payload.size(), 16u);
}

TEST(MailboxTest, GetSkipsNonMatching) {
  Mailbox box;
  box.put(make_envelope(1, 1, 8));
  box.put(make_envelope(2, 2, 9));
  const Envelope e = box.take(2, 2).value();
  EXPECT_EQ(e.payload.size(), 9u);
  EXPECT_EQ(box.pending(), 1u);
  EXPECT_FALSE(box.take(2, 2).has_value());
  EXPECT_FALSE(box.take(1, 2).has_value());
  EXPECT_EQ(box.take(kAnySource, 1).value().source, 1);
}

TEST(MailboxTest, FifoPerSourceAndTag) {
  Mailbox box;
  box.put(make_envelope(1, 5, 1));
  box.put(make_envelope(1, 5, 2));
  box.put(make_envelope(1, 5, 3));
  EXPECT_EQ(box.take(1, 5).value().payload.size(), 1u);
  EXPECT_EQ(box.take(1, 5).value().payload.size(), 2u);
  EXPECT_EQ(box.take(1, 5).value().payload.size(), 3u);
}

TEST(MailboxTest, ProbeDoesNotConsume) {
  Mailbox box;
  EXPECT_FALSE(box.probe(0, 0));
  box.put(make_envelope(0, 0, 4));
  EXPECT_TRUE(box.probe(0, 0));
  EXPECT_FALSE(box.probe(0, 1));
  EXPECT_EQ(box.pending(), 1u);
}

TEST(MailboxTest, GetBlocksUntilPut) {
  // Rank 0 runs first and finds its mailbox empty: its receive must wait
  // (switching to rank 1) until rank 1's message arrives.
  std::size_t received = 0;
  run(2, [&received](Communicator& comm) {
    if (comm.rank() == 0) {
      received = comm.recv_bytes(1, 9).size();
    } else {
      comm.send_bytes(0, 9, std::vector<std::byte>(21, std::byte{42}));
    }
  });
  EXPECT_EQ(received, 21u);
}

TEST(MailboxTest, ConcurrentProducersAllDelivered) {
  // Rank 0 consumes, ranks 1..8 produce; the consumer blocks on the first
  // producer while the others run, so all traffic interleaves in its box.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 100;
  run(kProducers + 1, [](Communicator& comm) {
    if (comm.rank() != 0) {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::vector<std::byte> payload(static_cast<std::size_t>(i + 1));
        comm.send_bytes(0, 0, payload);
      }
      return;
    }
    // Per-source FIFO must hold even when producers interleave.
    for (Rank producer = 1; producer <= kProducers; ++producer) {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_EQ(comm.recv_bytes(producer, 0).size(),
                  static_cast<std::size_t>(i + 1));
      }
    }
    EXPECT_FALSE(comm.probe(1, 0));
  });
}

}  // namespace
}  // namespace exareq::simmpi
