#include "instr/process.hpp"

#include <gtest/gtest.h>

#include <string>

namespace exareq::instr {
namespace {

TEST(ProcessInstrumentationTest, CountsAccumulateIntoReport) {
  ProcessInstrumentation instr;
  instr.count_flops(100);
  instr.count_loads(30);
  instr.count_stores(20);
  const ProcessReport report = instr.report();
  EXPECT_EQ(report.ops.flops, 100u);
  EXPECT_EQ(report.ops.loads, 30u);
  EXPECT_EQ(report.ops.stores, 20u);
  EXPECT_EQ(report.ops.loads_stores(), 50u);
}

TEST(ProcessInstrumentationTest, FmaCountsTwoFlopsTwoLoadsOneStore) {
  ProcessInstrumentation instr;
  instr.count_fma(10);
  const ProcessReport report = instr.report();
  EXPECT_EQ(report.ops.flops, 20u);
  EXPECT_EQ(report.ops.loads, 20u);
  EXPECT_EQ(report.ops.stores, 10u);
}

TEST(ProcessInstrumentationTest, PeakBytesInReport) {
  ProcessInstrumentation instr;
  { TrackedBuffer<double> buffer(64, instr.memory()); }
  EXPECT_EQ(instr.report().peak_bytes, 512u);
}

TEST(ProcessInstrumentationTest, PendingCountersAttributedToOpenRegion) {
  ProcessInstrumentation instr;
  {
    auto region = instr.region("kernel");
    instr.count_flops(7);
  }
  instr.count_flops(3);  // outside -> root
  const auto paths = instr.regions().flatten();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].inclusive.flops, 10u);
  EXPECT_EQ(paths[1].path, "kernel");
  // The 7 flops counted inside the region belong to it...
  EXPECT_EQ(paths[1].exclusive.flops, 7u);
  // ...and the 3 counted after it closed belong to the root exclusively.
  EXPECT_EQ(paths[0].exclusive.flops, 3u);
}

TEST(ProcessInstrumentationTest, CountersBeforeRegionGoToEnclosingScope) {
  ProcessInstrumentation instr;
  instr.count_flops(5);  // before any region: root
  {
    auto region = instr.region("r");
    instr.count_flops(1);
  }
  const auto paths = instr.regions().flatten();
  EXPECT_EQ(paths[0].exclusive.flops, 5u);
  EXPECT_EQ(paths[1].exclusive.flops, 1u);
}

TEST(ProcessInstrumentationTest, NestedCountsSurviveRegionTreeGrowth) {
  // Entering a new region may grow the profiler's node storage and so move
  // every node; counts made before and after the move must stay on their
  // own call paths, and the open region must keep receiving counts.
  ProcessInstrumentation instr;
  {
    auto outer = instr.region("outer");
    instr.count_flops(5);
    {
      auto inner = instr.region("inner");
      instr.count_fma(2);  // 4 flops, 4 loads, 2 stores
    }
    const auto before = instr.regions().flatten();
    ASSERT_EQ(before.size(), 3u);
    for (int i = 0; i < 100; ++i) {
      auto leaf = instr.region("leaf" + std::to_string(i));
      instr.count_loads(1);
    }
    const auto after = instr.regions().flatten();
    ASSERT_EQ(after.size(), 103u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(after[i].path, before[i].path);
      EXPECT_EQ(after[i].exclusive, before[i].exclusive) << after[i].path;
    }
    EXPECT_EQ(after[2].inclusive, before[2].inclusive);

    instr.count_flops(6);  // still attributed to "outer"
    {
      auto inner = instr.region("inner");  // re-enter the existing node
      instr.count_stores(3);
    }
  }
  instr.count_flops(1);  // root

  const auto paths = instr.regions().flatten();
  ASSERT_EQ(paths.size(), 103u);
  EXPECT_EQ(paths[1].path, "outer");
  EXPECT_EQ(paths[1].exclusive, (OpCounters{11, 0, 0}));
  EXPECT_EQ(paths[1].inclusive, (OpCounters{15, 104, 5}));
  EXPECT_EQ(paths[2].path, "outer/inner");
  EXPECT_EQ(paths[2].visits, 2u);
  EXPECT_EQ(paths[2].exclusive, (OpCounters{4, 4, 5}));
  EXPECT_EQ(paths[2].inclusive, paths[2].exclusive);
  EXPECT_EQ(paths[3].path, "outer/leaf0");
  EXPECT_EQ(paths[3].exclusive, (OpCounters{0, 1, 0}));
  EXPECT_EQ(paths[0].exclusive, (OpCounters{1, 0, 0}));
  EXPECT_EQ(paths[0].inclusive, instr.report().ops);
  EXPECT_EQ(instr.report().ops, (OpCounters{16, 104, 5}));
}

TEST(ProcessInstrumentationTest, ReportIsIdempotent) {
  ProcessInstrumentation instr;
  instr.count_loads(9);
  EXPECT_EQ(instr.report().ops.loads, 9u);
  EXPECT_EQ(instr.report().ops.loads, 9u);
}

TEST(ProcessInstrumentationTest, IoCountersTrackReadsAndWrites) {
  ProcessInstrumentation instr;
  instr.count_io_read(1000);
  instr.count_io_write(300);
  instr.count_io_write(200);
  const ProcessReport report = instr.report();
  EXPECT_EQ(report.io.bytes_read, 1000u);
  EXPECT_EQ(report.io.bytes_written, 500u);
  EXPECT_EQ(report.io.bytes_total(), 1500u);
  EXPECT_EQ(instr.io().bytes_total(), 1500u);
}

TEST(ProcessInstrumentationTest, IoCountersStartAtZero) {
  ProcessInstrumentation instr;
  EXPECT_EQ(instr.report().io.bytes_total(), 0u);
}

}  // namespace
}  // namespace exareq::instr
