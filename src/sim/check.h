// EANDROID_CHECK: input validation that survives release builds.
//
// `assert` compiles out under NDEBUG, which is exactly the build most
// soaks and benches run — a bad uid handed to the framework would then
// corrupt state silently instead of failing. EANDROID_CHECK stays active
// in every build type and throws sim::CheckFailure, so a violating call
// is an ordinary, catchable error: the ParallelRunner propagates it with
// the seed attached rather than taking the whole process down.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace eandroid::sim {

/// Thrown when an EANDROID_CHECK fails. Carries the failing expression
/// and location so a failing seed can print a reproducible report.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& message) {
  std::ostringstream out;
  out << "EANDROID_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!message.empty()) out << " — " << message;
  throw CheckFailure(out.str());
}
}  // namespace detail

}  // namespace eandroid::sim

/// Validates `cond` in all build types; throws sim::CheckFailure with the
/// streamed message on failure. Use on every user-input path (uids,
/// handles, component names) where a bad argument must be an error, not
/// undefined behaviour.
#define EANDROID_CHECK(cond, ...)                                           \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::std::ostringstream eandroid_check_msg_;                             \
      eandroid_check_msg_ << "" __VA_ARGS__;                                \
      ::eandroid::sim::detail::check_failed(#cond, __FILE__, __LINE__,      \
                                            eandroid_check_msg_.str());     \
    }                                                                       \
  } while (false)
