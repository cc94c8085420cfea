// Allocation guard: the hot paths must not touch the heap.
//
// This executable replaces the global operator new with a counting one and
// asserts that 10^5 passing calls of each guarded operation allocate
// nothing. A contract check that builds its message eagerly (a std::string
// longer than the 15-byte small-string buffer) would allocate on every
// call; measure runs hundreds of millions of them. The fitter scores each
// candidate hypothesis on a reused RetainedQr workspace, which must not
// allocate once it has seen the largest system.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "instr/memory.hpp"
#include "model/linalg.hpp"
#include "instr/process.hpp"
#include "serve/binary_protocol.hpp"
#include "simmpi/runtime.hpp"
#include "support/error.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocation(size); }
void* operator new[](std::size_t size) { return counted_allocation(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace exareq {
namespace {

constexpr int kCalls = 100000;

/// Heap allocations made while running `body`.
template <typename Body>
std::size_t allocations_during(Body&& body) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocGuardTest, CounterSeesAllocations) {
  // The guard is only meaningful if the replacement is live.
  std::vector<std::string> sink;
  EXPECT_GE(allocations_during([&] {
              sink.emplace_back("a string well past the small-string buffer");
            }),
            2u);
}

TEST(AllocGuardTest, RequireWithLongLiteralDoesNotAllocate) {
  volatile int limit = kCalls;
  std::size_t passed = 0;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < kCalls; ++i) {
                require(i < limit, "a contract message longer than fifteen");
                ++passed;
              }
            }),
            0u);
  EXPECT_EQ(passed, static_cast<std::size_t>(kCalls));
}

TEST(AllocGuardTest, RequireWithLazyMessageDoesNotAllocateWhenPassing) {
  volatile int limit = kCalls;
  std::size_t passed = 0;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < kCalls; ++i) {
                require(i < limit, [&] {
                  return "index " + std::to_string(i) + " is out of range";
                });
                ++passed;
              }
            }),
            0u);
  EXPECT_EQ(passed, static_cast<std::size_t>(kCalls));
  EXPECT_THROW(require(false, [] { return std::string("built on failure"); }),
               InvalidArgument);
}

TEST(AllocGuardTest, TrackedBufferIndexingDoesNotAllocate) {
  instr::MemoryTracker tracker;
  instr::TrackedBuffer<double> buffer(64, tracker);
  double sum = 0.0;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < kCalls; ++i) {
                const std::size_t index = static_cast<std::size_t>(i) % 64;
                buffer[index] += 1.0;
                sum += buffer[index];
              }
            }),
            0u);
  EXPECT_GT(sum, 0.0);
  EXPECT_THROW(buffer[64], InvalidArgument);
}

TEST(AllocGuardTest, OperationCountingInOpenRegionDoesNotAllocate) {
  // Every kernel loop calls the count_* hooks; opening the region may
  // allocate its node, counting inside it must not.
  instr::ProcessInstrumentation instr;
  const auto outer = instr.region("solve");
  const auto inner = instr.region("a region name longer than fifteen");
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < kCalls; ++i) {
                instr.count_flops(3);
                instr.count_loads(2);
                instr.count_stores(1);
                instr.count_fma(1);
              }
            }),
            0u);
  const instr::OpCounters totals = instr.report().ops;
  EXPECT_EQ(totals.flops, 5u * kCalls);
  EXPECT_EQ(totals.loads, 4u * kCalls);
  EXPECT_EQ(totals.stores, 2u * kCalls);
}

TEST(AllocGuardTest, RuntimeStatsAndMailboxLookupsDoNotAllocate) {
  simmpi::Runtime runtime(8);
  std::uint64_t total = 0;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < kCalls; ++i) {
                const simmpi::Rank r = i % runtime.size();
                ++runtime.stats(r).messages_sent;
                total += runtime.mailbox(r).pending();
              }
            }),
            0u);
  EXPECT_EQ(total, 0u);
  EXPECT_EQ(runtime.stats(0).messages_sent,
            static_cast<std::uint64_t>(kCalls / 8));
  EXPECT_THROW(runtime.stats(8), InvalidArgument);
}

TEST(AllocGuardTest, BinaryReaderFieldReadsDoNotAllocate) {
  // One record of a u32 and an f64, repeated.
  constexpr std::size_t kRecords = 1000;
  std::string payload;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const std::uint32_t word = static_cast<std::uint32_t>(i);
    const double value = 0.5 * static_cast<double>(i);
    char bytes[12];
    for (int b = 0; b < 4; ++b) bytes[b] = static_cast<char>(word >> (8 * b));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      bytes[4 + b] = static_cast<char>(bits >> (8 * b));
    }
    payload.append(bytes, sizeof(bytes));
  }
  std::uint64_t words = 0;
  double values = 0.0;
  EXPECT_EQ(allocations_during([&] {
              for (int pass = 0; pass < kCalls / static_cast<int>(kRecords);
                   ++pass) {
                serve::binary::Reader reader(payload);
                for (std::size_t i = 0; i < kRecords; ++i) {
                  words += reader.u32("a field name longer than fifteen");
                  values += reader.f64("another field name, also long");
                }
              }
            }),
            0u);
  EXPECT_EQ(words, 100u * (kRecords * (kRecords - 1) / 2));
  EXPECT_DOUBLE_EQ(values, 100.0 * 0.5 * (kRecords * (kRecords - 1) / 2));
  serve::binary::Reader empty{std::string_view()};
  EXPECT_THROW(empty.u32("record count"), InvalidArgument);
}

TEST(AllocGuardTest, RetainedQrWorkspaceReuseDoesNotAllocate) {
  // One candidate extension as the fitter scores it: copy the shared
  // prefix into the thread's workspace, append the candidate column,
  // solve, and downdate every fold.
  constexpr std::size_t kRows = 25;
  std::vector<double> rhs(kRows);
  std::vector<std::vector<double>> columns(4, std::vector<double>(kRows));
  for (std::size_t r = 0; r < kRows; ++r) {
    const double x = 1.0 + static_cast<double>(r);
    rhs[r] = 3.0 + 2.0 * x + 0.5 * x * x + 0.01 * static_cast<double>(r % 3);
    columns[0][r] = 1.0;
    columns[1][r] = x;
    columns[2][r] = x * x;
    columns[3][r] = std::sqrt(x);
  }
  model::RetainedQr prefix(kRows, rhs);
  for (std::size_t c = 0; c < 3; ++c) prefix.append_column(columns[c]);
  model::RetainedQr workspace;
  std::vector<double> fold(4);
  double total = 0.0;
  const auto score_candidate = [&] {
    workspace = prefix;
    workspace.append_column(columns[3]);
    workspace.solve();
    for (std::size_t row = 0; row < kRows; ++row) {
      double press = 0.0;
      if (workspace.leave_one_out(row, fold, &press)) total += press;
    }
  };
  score_candidate();  // warm-up: the workspace sizes its buffers once
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < kCalls / 100; ++i) score_candidate();
            }),
            0u);
  EXPECT_TRUE(std::isfinite(total));
  EXPECT_EQ(workspace.cols(), 4u);
}

}  // namespace
}  // namespace exareq
