#!/usr/bin/env python3
"""ISA-leak check: no ISA-flagged word-backend object defines a weak
poetbin:: function.

Usage:
  check_isa_objects.py LIBRARY      # e.g. build/libpoetbin.a

The SIMD word backends (src/util/word_backend_{avx2,avx512*,neon}.cpp) are
compiled with their own ISA flags (-mavx2, -mavx512f, ...). An `inline`
function with external linkage that such a TU uses is emitted there as a
weak symbol, and the linker keeps one copy of it for the whole program —
possibly the one built with the wider ISA, which then faults with SIGILL
on a CPU the runtime dispatch was meant to protect. The shared scalar
bodies (util/word_backend_impl.h) therefore have internal linkage, and
check_fail is defined out of line. This check runs `nm -C --defined-only`
on the library and fails if any ISA-flagged member still defines a weak
(`W`) poetbin:: function. Runtime-dispatched entry points such as
avx512_vbmi_gather_bits are strong (`T`) and allowed.

Exit codes: 0 clean, 1 weak symbols found, 2 usage error or nm failure.
"""

import re
import subprocess
import sys

ISA_MEMBER = re.compile(r"^word_backend_(?:avx2|avx512\w*|neon)\.cpp\.o$")
# "<address> <type> <demangled name>"; undefined symbols are filtered by
# --defined-only, so every symbol line has an address.
SYMBOL_LINE = re.compile(r"^[0-9a-fA-F]+\s+(\S)\s+(.*)$")


def weak_poetbin_symbols(nm_output):
    """Yields (member, symbol) for every weak poetbin:: function defined in
    an ISA-flagged archive member."""
    member = None
    for line in nm_output.splitlines():
        if line.endswith(":") and " " not in line:
            member = line[:-1]
            continue
        if member is None or not ISA_MEMBER.match(member):
            continue
        match = SYMBOL_LINE.match(line.strip())
        if match and match.group(1) == "W" and \
                match.group(2).startswith("poetbin::"):
            yield member, match.group(2)


def main(argv):
    if len(argv) != 2:
        print("usage: check_isa_objects.py LIBRARY", file=sys.stderr)
        return 2
    library = argv[1]
    try:
        nm = subprocess.run(["nm", "-C", "--defined-only", library],
                            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"error: nm failed on {library}: {error}", file=sys.stderr)
        return 2
    leaks = sorted(set(weak_poetbin_symbols(nm.stdout)))
    if leaks:
        for member, symbol in leaks:
            print(f"{member}: W {symbol}")
        print(f"\nFAIL: {len(leaks)} weak poetbin:: function(s) in "
              "ISA-flagged objects; the linker may keep these copies for "
              "every caller. Give the body internal linkage or define it "
              "out of line in a baseline TU.")
        return 1
    print("OK: no weak poetbin:: functions in ISA-flagged objects")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
