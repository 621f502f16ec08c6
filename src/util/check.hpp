#pragma once
/// \file check.hpp
/// \brief Lightweight runtime check macros used throughout the library.
///
/// `HMM_CHECK` is always on (argument validation on public entry points);
/// `HMM_DCHECK` compiles away in release builds and guards internal
/// invariants on hot paths.
///
/// Scope note (the error taxonomy, see also runtime/status.hpp): these
/// macros are for *programmer errors and broken invariants only* — a
/// non-bijective "permutation", a schedule entry outside its row, a
/// wait on a pool worker that would deadlock. They abort because no
/// caller can meaningfully recover. **Operational** failures a serving
/// process must survive — malformed requests, plan-build failures,
/// allocation pressure, deadlines, cancellation — must instead return
/// `hmm::runtime::Status` / `StatusOr<T>` through the serving-path
/// entry points (`PlanCache::try_acquire`, `Executor::try_submit`,
/// `RobustPermuteService::submit`). Adding an
/// HMM_CHECK on a path reachable by untrusted request input is a bug.

#include <cstdio>
#include <cstdlib>

namespace hmm::util {

/// Print a diagnostic and abort. Out-of-line so the macro stays tiny.
[[noreturn]] inline void check_failed(const char* expr, const char* file, int line,
                                      const char* msg) {
  std::fprintf(stderr, "[hmm] check failed: %s\n  at %s:%d\n  %s\n", expr, file, line,
               msg ? msg : "");
  std::abort();
}

}  // namespace hmm::util

#define HMM_CHECK(expr)                                                  \
  do {                                                                   \
    if (!(expr)) ::hmm::util::check_failed(#expr, __FILE__, __LINE__, nullptr); \
  } while (0)

#define HMM_CHECK_MSG(expr, msg)                                         \
  do {                                                                   \
    if (!(expr)) ::hmm::util::check_failed(#expr, __FILE__, __LINE__, msg); \
  } while (0)

#ifdef NDEBUG
#define HMM_DCHECK(expr) ((void)0)
#else
#define HMM_DCHECK(expr) HMM_CHECK(expr)
#endif
