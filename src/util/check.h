// Contract-checking macros used across the library.
//
// POETBIN_CHECK is active in all build types: library invariants and caller
// contracts are cheap relative to training loops, and silent corruption in a
// hardware-generation path is far worse than an abort.
#pragma once

namespace poetbin {

// Prints the failed check and aborts. Defined out of line (util/check.cpp)
// so the ISA-flagged word-backend TUs, which use the macros, cannot emit a
// weak copy of it that the linker might keep for the whole program.
[[noreturn]] void check_fail(const char* expr, const char* file, int line,
                             const char* msg);

}  // namespace poetbin

#define POETBIN_CHECK(expr)                                          \
  do {                                                               \
    if (!(expr)) ::poetbin::check_fail(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define POETBIN_CHECK_MSG(expr, msg)                                    \
  do {                                                                  \
    if (!(expr)) ::poetbin::check_fail(#expr, __FILE__, __LINE__, msg); \
  } while (0)
