// Message envelope of the simulated MPI runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace exareq::simmpi {

/// Rank index type (matches MPI's int convention).
using Rank = int;

/// Message tag; collectives use reserved tags above kUserTagLimit.
using Tag = int;

/// User code must keep tags below this bound; the collective
/// implementations reserve the range above it.
inline constexpr Tag kUserTagLimit = 1 << 20;

/// The reserved tags, one per collective algorithm.
inline constexpr Tag kTagBarrier = kUserTagLimit + 1;
inline constexpr Tag kTagBcast = kUserTagLimit + 2;
inline constexpr Tag kTagAllreduce = kUserTagLimit + 3;
inline constexpr Tag kTagReduce = kUserTagLimit + 4;
inline constexpr Tag kTagAllgather = kUserTagLimit + 5;
inline constexpr Tag kTagAlltoall = kUserTagLimit + 6;
inline constexpr Tag kTagGather = kUserTagLimit + 7;
inline constexpr Tag kTagScatter = kUserTagLimit + 8;
inline constexpr Tag kTagScan = kUserTagLimit + 9;

/// One in-flight message.
struct Envelope {
  Rank source = 0;
  Tag tag = 0;
  std::vector<std::byte> payload;
};

}  // namespace exareq::simmpi
