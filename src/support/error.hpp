// Error handling primitives shared by all exareq libraries.
//
// Library code reports contract violations and unsatisfiable requests with
// exceptions derived from exareq::Error so that callers (tests, example
// drivers, bench harnesses) can distinguish library failures from std
// failures.
#pragma once

#include <concepts>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace exareq {

/// Base class of all exceptions thrown by exareq libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an argument violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when a numeric routine cannot produce a meaningful result
/// (singular system, no admissible hypothesis, inversion out of range, ...).
class NumericError : public Error {
 public:
  explicit NumericError(const std::string& what) : Error(what) {}
};

namespace detail {
// Out of line and cold, so an inlined check is a compare and a branch.
[[noreturn, gnu::noinline, gnu::cold]] inline void throw_invalid_argument(
    const char* message) {
  throw InvalidArgument(message);
}
[[noreturn, gnu::noinline, gnu::cold]] inline void throw_invalid_argument(
    const std::string& message) {
  throw InvalidArgument(message);
}
}  // namespace detail

/// Throws InvalidArgument with `message` when `condition` is false. A
/// passing check costs one branch: the message is a literal, never built.
inline void require(bool condition, const char* message) {
  if (!condition) [[unlikely]] detail::throw_invalid_argument(message);
}

/// Throws InvalidArgument with the message `make_message()` returns when
/// `condition` is false. The callable runs only on failure, so a passing
/// check neither formats nor allocates:
///   require(i < n, [&] { return "index " + std::to_string(i) + " is out"; });
template <typename MakeMessage>
  requires std::is_invocable_v<MakeMessage&> &&
           std::convertible_to<std::invoke_result_t<MakeMessage&>, std::string>
inline void require(bool condition, MakeMessage&& make_message) {
  if (!condition) [[unlikely]] {
    detail::throw_invalid_argument(std::string(make_message()));
  }
}

/// An eagerly built message would be formatted (and usually allocated) on
/// every passing check; pass a literal or a message-building callable.
void require(bool condition, const std::string& message) = delete;

/// Rethrows `error` with `prefix` prepended to its message. The exareq
/// exception types are preserved (InvalidArgument, NumericError, Error);
/// other std::exceptions become Error, and exceptions that carry no message
/// propagate unchanged.
[[noreturn]] inline void rethrow_with_prefix(const std::exception_ptr& error,
                                             std::string_view prefix) {
  const std::string head(prefix);
  try {
    std::rethrow_exception(error);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(head + e.what());
  } catch (const NumericError& e) {
    throw NumericError(head + e.what());
  } catch (const Error& e) {
    throw Error(head + e.what());
  } catch (const std::exception& e) {
    throw Error(head + e.what());
  }
}

}  // namespace exareq
