#include "simmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "support/error.hpp"

namespace exareq::simmpi {
namespace {

TEST(RuntimeTest, SingleRankRuns) {
  std::atomic<int> calls{0};
  run(1, [&calls](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(RuntimeTest, EveryRankGetsDistinctRank) {
  constexpr int p = 16;
  std::vector<std::atomic<int>> seen(p);
  run(p, [&seen](Communicator& comm) {
    ++seen[static_cast<std::size_t>(comm.rank())];
  });
  for (const auto& count : seen) EXPECT_EQ(count.load(), 1);
}

TEST(RuntimeTest, PointToPointRoundTrip) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data{3.14, 2.71};
      comm.send<double>(1, 5, data);
      const auto back = comm.recv<double>(1, 6);
      EXPECT_DOUBLE_EQ(back[0], 6.28);
    } else {
      auto data = comm.recv<double>(0, 5);
      for (double& v : data) v *= 2.0;
      comm.send<double>(0, 6, std::vector<double>{data[0]});
    }
  });
}

TEST(RuntimeTest, SelfSendIsDelivered) {
  run(1, [](Communicator& comm) {
    comm.send<std::int64_t>(0, 1, std::vector<std::int64_t>{7});
    EXPECT_EQ(comm.recv<std::int64_t>(0, 1)[0], 7);
  });
}

TEST(RuntimeTest, ExceptionsPropagateToCaller) {
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     if (comm.rank() == 2) {
                       throw exareq::NumericError("rank 2 failed");
                     }
                   }),
               exareq::NumericError);
}

/// Runs `body` expecting it to throw `E`; returns the message.
template <typename E, typename Body>
std::string message_of(Body&& body) {
  try {
    body();
  } catch (const E& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

TEST(RuntimeTest, FailingRankUnwindsPeersBlockedInRecv) {
  // Ranks 0, 1 and 3 wait for a message rank 2 never sends: they must
  // unwind with RankAborted, and run() must report rank 2's own error.
  std::atomic<int> aborted{0};
  const std::string message = message_of<exareq::NumericError>([&] {
    run(4, [&aborted](Communicator& comm) {
      if (comm.rank() == 2) throw exareq::NumericError("rank 2 failed");
      try {
        (void)comm.recv<double>(2, 11);
      } catch (const RankAborted&) {
        ++aborted;
        throw;
      }
    });
  });
  EXPECT_EQ(message, "rank 2: rank 2 failed");
  EXPECT_GE(aborted.load(), 2);  // ranks 0 and 1 were blocked before it threw
}

TEST(RuntimeTest, FailingRankUnwindsPeersBlockedInACollective) {
  const std::string message = message_of<exareq::InvalidArgument>([] {
    run(8, [](Communicator& comm) {
      if (comm.rank() == 5) throw exareq::InvalidArgument("bad input");
      const std::vector<double> one{1.0};
      (void)comm.allreduce(std::span<const double>(one), ops::Sum{});
    });
  });
  EXPECT_EQ(message, "rank 5: bad input");
}

TEST(RuntimeTest, LowestFailingRankIsReported) {
  const std::string message = message_of<exareq::NumericError>([] {
    run(6, [](Communicator& comm) {
      if (comm.rank() >= 3) {
        throw exareq::NumericError("failed at " + std::to_string(comm.rank()));
      }
      comm.barrier();
    });
  });
  EXPECT_EQ(message, "rank 3: failed at 3");
}

TEST(RuntimeTest, DeadlockNamesEveryBlockedRankAndItsReceive) {
  // Each rank waits for its right neighbour, which waits in turn.
  const std::string message = message_of<exareq::Error>([] {
    run(3, [](Communicator& comm) {
      (void)comm.recv_bytes((comm.rank() + 1) % comm.size(), 7);
    });
  });
  EXPECT_NE(message.find("deadlock"), std::string::npos) << message;
  EXPECT_NE(message.find("rank 0 waits for (source 1, tag 7)"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("rank 1 waits for (source 2, tag 7)"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("rank 2 waits for (source 0, tag 7)"),
            std::string::npos)
      << message;
}

TEST(RuntimeTest, DeadlockInACollectiveNamesIt) {
  // Rank 3 skips the barrier and returns; the others can never finish it.
  const std::string message = message_of<exareq::Error>([] {
    run(4, [](Communicator& comm) {
      if (comm.rank() != 3) comm.barrier();
    });
  });
  EXPECT_NE(message.find("tag barrier"), std::string::npos) << message;
  EXPECT_EQ(message.find("rank 3 waits"), std::string::npos) << message;
}

TEST(RuntimeTest, AnySourceWaitIsReported) {
  const std::string message = message_of<exareq::Error>([] {
    run(2, [](Communicator& comm) { (void)comm.recv_bytes_any(4); });
  });
  EXPECT_NE(message.find("rank 1 waits for (source any, tag 4)"),
            std::string::npos)
      << message;
}

TEST(RuntimeTest, ProbeLetsTheSenderRun) {
  // Rank 0 polls before rank 1 has run; probe must yield or this spins.
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      int polls = 0;
      while (!comm.probe(1, 3)) ++polls;
      EXPECT_GE(polls, 0);
      EXPECT_EQ(comm.recv<int>(1, 3)[0], 42);
    } else {
      comm.send<int>(0, 3, std::vector<int>{42});
    }
  });
}

TEST(RuntimeTest, ThousandRankBarrierAndAllreduceMatchClosedForm) {
  // Well past the old 512-rank cap. Allreduce of s bytes costs each rank
  // 2 * s * log2(p) bytes; the barrier 2 * ceil(log2 p) one-byte tokens.
  constexpr int p = 1024;
  constexpr std::uint64_t kLog2P = 10;
  constexpr std::uint64_t s = 8 * sizeof(double);
  std::vector<double> sums(p);
  const RunResult result = run(p, [&sums](Communicator& comm) {
    {
      ChannelScope channel(comm, "barrier");
      comm.barrier();
    }
    ChannelScope channel(comm, "allreduce");
    const std::vector<double> mine(8, static_cast<double>(comm.rank()));
    sums[static_cast<std::size_t>(comm.rank())] =
        comm.allreduce(std::span<const double>(mine), ops::Sum{})[3];
  });
  for (int r = 0; r < p; ++r) {
    const CommStats& stats = result.stats[static_cast<std::size_t>(r)];
    EXPECT_EQ(stats.channels.at("allreduce").bytes_total(), 2 * s * kLog2P);
    EXPECT_EQ(stats.channels.at("barrier").bytes_total(), 2 * kLog2P);
    EXPECT_EQ(sums[static_cast<std::size_t>(r)], p * (p - 1) / 2.0);
  }
}

TEST(RuntimeTest, RejectsInvalidSizes) {
  EXPECT_THROW(run(0, [](Communicator&) {}), exareq::InvalidArgument);
  EXPECT_THROW(run(-3, [](Communicator&) {}), exareq::InvalidArgument);
  EXPECT_THROW(run(100000, [](Communicator&) {}), exareq::InvalidArgument);
  EXPECT_THROW(run(kMaxRanks + 1, [](Communicator&) {}),
               exareq::InvalidArgument);
}

TEST(RuntimeTest, RejectsNullFunction) {
  EXPECT_THROW(run(2, RankFunction{}), exareq::InvalidArgument);
}

TEST(RuntimeTest, SendValidatesDestination) {
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 0) {
                       comm.send<double>(5, 0, std::vector<double>{1.0});
                     }
                   }),
               exareq::InvalidArgument);
}

TEST(RuntimeTest, StatsCountPointToPointBytes) {
  const RunResult result = run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(1, 0, std::vector<double>(10));  // 80 bytes
    } else {
      (void)comm.recv<double>(0, 0);
    }
  });
  EXPECT_EQ(result.stats[0].bytes_sent, 80u);
  EXPECT_EQ(result.stats[0].bytes_received, 0u);
  EXPECT_EQ(result.stats[0].messages_sent, 1u);
  EXPECT_EQ(result.stats[1].bytes_received, 80u);
  EXPECT_EQ(result.stats[1].messages_received, 1u);
  EXPECT_EQ(result.max_bytes_per_rank(), 80u);
}

TEST(RuntimeTest, StatsAggregationHelpers) {
  std::vector<CommStats> stats(3);
  stats[0].bytes_sent = 10;
  stats[1].bytes_sent = 5;
  stats[1].bytes_received = 20;
  stats[2].bytes_received = 7;
  EXPECT_EQ(max_bytes_total(stats), 25u);
  EXPECT_NEAR(mean_bytes_total(stats), (10.0 + 25.0 + 7.0) / 3.0, 1e-12);
  EXPECT_THROW(max_bytes_total({}), exareq::InvalidArgument);
}

TEST(RuntimeTest, FromBytesRejectsMisalignedPayload) {
  const std::vector<std::byte> bytes(7);
  EXPECT_THROW(from_bytes<double>(bytes), exareq::InvalidArgument);
}

TEST(RuntimeTest, ToBytesFromBytesRoundTrip) {
  const std::vector<double> values{1.0, -2.5, 1e300};
  const auto bytes = to_bytes<double>(values);
  EXPECT_EQ(bytes.size(), 24u);
  EXPECT_EQ(from_bytes<double>(bytes), values);
}

}  // namespace
}  // namespace exareq::simmpi
