#include "util/check.h"

#include <cstdio>
#include <cstdlib>

namespace poetbin {

void check_fail(const char* expr, const char* file, int line,
                const char* msg) {
  std::fprintf(stderr, "CHECK failed: %s (%s:%d)%s%s\n", expr, file, line,
               msg[0] ? " — " : "", msg);
  std::abort();
}

}  // namespace poetbin
