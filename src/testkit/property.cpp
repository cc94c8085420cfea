#include "testkit/property.hpp"

#include <charconv>
#include <cstdlib>

namespace exareq::testkit {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t minimum) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  std::uint64_t value = 0;
  const char* end = text;
  while (*end != '\0') ++end;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  exareq::require(ec == std::errc{} && ptr == end && value >= minimum, [&] {
    return std::string(name) + " must be an integer >= " +
           std::to_string(minimum) + ", got '" + text + "'";
  });
  return value;
}

}  // namespace

PropertyConfig property_config(std::string name, std::size_t cases) {
  PropertyConfig config;
  config.name = std::move(name);
  config.seed = env_u64("EXAREQ_PROPERTY_SEED", config.seed, 1);
  config.cases = static_cast<std::size_t>(
      env_u64("EXAREQ_PROPERTY_CASES", cases, 1));
  return config;
}

std::uint64_t case_seed(std::uint64_t run_seed, std::uint64_t case_index) {
  // Two SplitMix64 steps decorrelate (seed, index) pairs; the +1 keeps the
  // all-zero input away from the all-zero output.
  std::uint64_t state = run_seed + 1;
  const std::uint64_t mixed_seed = splitmix64(state);
  state = mixed_seed ^ (case_index * 0x9e3779b97f4a7c15ULL + 1);
  return splitmix64(state);
}

}  // namespace exareq::testkit
