#!/usr/bin/env python3
"""Project-invariant linter: statically enforce rules the codebase learned
the hard way.

Usage:
  check_invariants.py [--root DIR]     # lint the tree (default: repo root)
  check_invariants.py --self-test      # prove every rule fires on a seeded
                                       # violation and passes a clean tree

Rules (each with the incident that motivated it):

  memory-order-comment   Every `std::memory_order_*` use carries an
                         adjacent `// order:` justification (same line or
                         within the 6 lines above). The PR 8 cache audit
                         showed undocumented orderings rot into cargo-cult
                         relaxed loads nobody dares touch.
  atomic-model-publish   Model artifacts (*.pbm) are pushed with the atomic
                         temp+rename writers / `mv`, never `cp`-in-place:
                         a reload racing an in-place copy reads a torn
                         file, which a kFull load rejects by CRC but a
                         kTrustChecksum load (what serving runs) catches
                         only where the damage breaks the structure.
                         Scans scripts, CI and docs.
  no-batched-shims       The removed `*_batched(..., n_threads)` shim
                         signatures never reappear — they constructed a
                         thread pool per call (PR 5's churn bug); callers
                         pass a BatchEngine.
  no-second-path-knobs   The removed second-path switches never reappear in
                         src/, examples/ or bench/: the `word_parallel*`
                         training
                         flags, `RuntimeOptions::fused_argmax`,
                         `PoetBin::predict_from_rinc_bits` and
                         `NetServerOptions::micro_batch`. Each operation
                         has one production path; scalar oracles live in
                         tests/reference/.
  no-scalar-dataset-twins  The scalar dataset evaluators deleted from the
                         library never reappear in src/ or examples/:
                         `eval_dataset_bitsliced`, `rinc_outputs_batched`,
                         `accuracy_batched`, and definitions of
                         `Lut::eval_dataset` / `Lut::addresses`, the scalar
                         `RincModule::` / `RincConvLayer::eval_dataset`,
                         `RincConvLayer::fidelity`, `PoetBin::` /
                         `ConvModel::predict_dataset`,
                         `PoetBin::rinc_outputs`, `PoetBin::accuracy` and
                         `BatchEngine::eval_dataset` / `accuracy`, and the
                         single-frame conv walk (`eval_frame`,
                         `eval_patch`). Each dataset operation has one
                         word-pass implementation, and one frame runs it on
                         a one-row matrix; the column-scan oracles live in
                         tests/reference/.
  no-splat-representation  The compact truth table is every LUT's only
                         representation: `splat_words`, `WordStorage`,
                         `word_storage.h`, `storage_keepalive` and
                         `mmap(` never reappear in src/: the 64x splat
                         copy of each table, the mmap views it was loaded
                         through and their keepalives are gone, and the
                         kernels read the compact bits. The one allowed
                         `mmap(` is the prediction cache's anonymous,
                         zero-filled table, behind the rule's allow marker.
  one-model-decoder      Model files load through one decoder: the deleted
                         per-format entry points (`read_model`,
                         `read_conv_model`, `read_model_file`,
                         `read_conv_model_file`, `read_packed_model_file`,
                         `is_packed_model_file`, `is_text_conv_model_file`)
                         never reappear in src/, examples/ or bench/, and
                         `std::rename(` appears in src/ only in the file
                         holding the one publish helper
                         (src/core/serialize.cpp). Two loaders had drifted
                         apart until pack wrote files its own loader
                         rejected. A loaded model is its tables: the MAT
                         weights' store and section (`mat_weights`,
                         `weights_at`, `kSecMatWeights`) never reappear in
                         src/. A second form of each MAT table had to be
                         kept in step with it, and the text format's
                         rounded weights flipped a table on reload.
  frame-payload-bound    Byte-size constants declared in the wire protocol
                         stay within kMaxFramePayload; a constant that
                         outgrows the frame cap would make the server
                         reject its own responses.
  no-rand-time           No `rand()`/`srand()`/`time()` in src/: every
                         library path is deterministic and seeded (the
                         bit-identity test strategy depends on it). Clocks
                         for timeouts use <chrono> steady_clock.
  tsan-supp-clean        tsan.supp never suppresses a `poetbin::` frame — a
                         race in our code is fixed or annotated at the
                         source, not muted.
  no-test-only-headers   Every src/ header is included by some file outside
                         tests/ other than its own .cpp (src/, examples/,
                         bench/, tools/ and perfbench/ count). A subsystem
                         only tests exercise is deleted, not kept alive by
                         its own test: augmentation, the RINC-only HDL
                         emitters and a second LUT-pruning analysis had
                         outlived every production caller.
  one-word-kernel-table  WordOps holds only the kernels whose vector width
                         pays. The removed entries and fields
                         (`and_words`, `or_words`, `xor_words`,
                         `not_words`, `popcount_words`, `entropy_sum`,
                         `block_words`) never reappear in src/, and src/dt/
                         never calls `word_ops()`: plain word loops and
                         the entropy sum are ordinary code at their call
                         sites. Their only callers had been test-only
                         BitVector operators, one XOR and one AND, and the
                         shared scalar bodies they needed leaked
                         ISA-flagged copies into the scalar backend.
                         Likewise the second and third Shannon evaluators
                         (scalar64's breadth-first `shannon_reduce` with
                         its `entry_word`, the netlist's recursive
                         `eval_lut_word`) never reappear in src/: every
                         LUT evaluation is WordOps::lut_reduce, the one
                         folded kernel in util/word_backend_shannon.h.
                         Each copy spent 2^k - 1 muxes per k-input LUT
                         where the folded kernel spends 2^(k-1), and
                         scalar64's ran 9x slower than the kernel at its
                         own width.

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.
Suppress a single line with `// invariants: allow-<rule>` (C++) or
`# invariants: allow-<rule>` (scripts/yaml) plus a reason.
"""

import argparse
import os
import re
import sys
import tempfile

CXX_EXTENSIONS = (".cpp", ".h", ".cc", ".hpp")
SCRIPT_EXTENSIONS = (".sh", ".py", ".yml", ".yaml", ".md", ".cmake")

# memory-order-comment: how many preceding lines may hold the `// order:`
# justification (multi-line statements and small audited blocks).
ORDER_COMMENT_WINDOW = 6


class Violation:
    def __init__(self, rule, path, line_no, message):
        self.rule = rule
        self.path = path
        self.line_no = line_no
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def allow_marker(rule, line):
    return f"invariants: allow-{rule}" in line


def iter_files(root, subdirs, extensions):
    self_path = os.path.abspath(__file__)
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in sorted(filenames):
                if not name.endswith(extensions):
                    continue
                path = os.path.join(dirpath, name)
                # The linter's own self-test seeds contain every violation.
                if os.path.abspath(path) == self_path:
                    continue
                yield path


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read().splitlines()


def relpath(root, path):
    return os.path.relpath(path, root)


# --- rule: memory-order-comment ---------------------------------------------

def check_memory_order_comment(root):
    violations = []
    pattern = re.compile(r"\bmemory_order_\w+")
    for path in iter_files(root, ["src"], CXX_EXTENSIONS):
        lines = read_lines(path)
        for i, line in enumerate(lines):
            if not pattern.search(line):
                continue
            if allow_marker("memory-order-comment", line):
                continue
            window = lines[max(0, i - ORDER_COMMENT_WINDOW):i + 1]
            if any("// order:" in w for w in window):
                continue
            violations.append(Violation(
                "memory-order-comment", relpath(root, path), i + 1,
                "memory_order_* without an adjacent '// order:' comment "
                "justifying the ordering"))
    return violations


# --- rule: atomic-model-publish ---------------------------------------------

# A `cp` (or shutil.copy*) whose arguments mention a packed-model artifact.
# Copying onto a .pbm in place can hand a racing reload a torn file; pushes
# must go through the temp+rename writers or `mv`.
CP_PBM = re.compile(r"\bcp\b[^\n|&;]*\.pbm\b")
SHUTIL_COPY_PBM = re.compile(r"shutil\.copy\w*\([^)]*\.pbm")


def check_atomic_model_publish(root):
    violations = []
    files = list(iter_files(root, ["tools", ".github", "docs"],
                            SCRIPT_EXTENSIONS))
    for name in ("README.md", "ROADMAP.md", "CONTRIBUTING.md"):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            files.append(path)
    for path in files:
        for i, line in enumerate(read_lines(path)):
            if allow_marker("atomic-model-publish", line):
                continue
            if CP_PBM.search(line) or SHUTIL_COPY_PBM.search(line):
                violations.append(Violation(
                    "atomic-model-publish", relpath(root, path), i + 1,
                    "model artifact pushed with cp/copy — use the atomic "
                    "temp+rename writers or `mv` (cp-in-place hands a "
                    "racing reload a torn file)"))
    return violations


# --- rule: no-batched-shims -------------------------------------------------

BATCHED_SHIM = re.compile(r"\w+_batched\s*\([^)]*\bn_threads\b")


def check_no_batched_shims(root):
    violations = []
    for path in iter_files(root, ["src", "tests", "bench", "examples",
                                  "tools"], CXX_EXTENSIONS):
        for i, line in enumerate(read_lines(path)):
            if allow_marker("no-batched-shims", line):
                continue
            if BATCHED_SHIM.search(line):
                violations.append(Violation(
                    "no-batched-shims", relpath(root, path), i + 1,
                    "the *_batched(n_threads) shim signature was removed "
                    "(per-call thread-pool churn); pass a BatchEngine"))
    return violations


# --- rule: no-second-path-knobs ---------------------------------------------

SECOND_PATH_KNOB = re.compile(r"word_parallel|fused_argmax|"
                              r"predict_from_rinc_bits|\bmicro_batch\b")


def check_no_second_path_knobs(root):
    violations = []
    for path in iter_files(root, ["src", "examples", "bench"],
                           CXX_EXTENSIONS):
        for i, line in enumerate(read_lines(path)):
            if allow_marker("no-second-path-knobs", line):
                continue
            match = SECOND_PATH_KNOB.search(line)
            if match:
                violations.append(Violation(
                    "no-second-path-knobs", relpath(root, path), i + 1,
                    f"'{match.group(0)}' selected a second production path "
                    "and was removed; keep one path per operation and put "
                    "scalar oracles in tests/reference/"))
    return violations


# --- rule: no-scalar-dataset-twins -----------------------------------------

SCALAR_DATASET_TWIN = re.compile(
    r"eval_dataset_bitsliced|rinc_outputs_batched|accuracy_batched|"
    r"\b(?:Lut|RincModule|RincConvLayer|BatchEngine)::eval_dataset\s*\(|"
    r"\b(?:PoetBin|ConvModel)::predict_dataset\s*\(|"
    r"\bLut::addresses\b|\bRincConvLayer::fidelity\b|"
    r"\bPoetBin::rinc_outputs\s*\(|\b(?:PoetBin|BatchEngine)::accuracy\b|"
    r"\beval_frame\b|\beval_patch\b")


def check_no_scalar_dataset_twins(root):
    violations = []
    for path in iter_files(root, ["src", "examples"], CXX_EXTENSIONS):
        for i, line in enumerate(read_lines(path)):
            if allow_marker("no-scalar-dataset-twins", line):
                continue
            match = SCALAR_DATASET_TWIN.search(line)
            if match:
                violations.append(Violation(
                    "no-scalar-dataset-twins", relpath(root, path), i + 1,
                    f"'{match.group(0)}' is a deleted scalar twin of a "
                    "dataset pass; use the word pass (eval_dataset_batched, "
                    "BatchEngine, predict_conv_dataset, on a one-row matrix "
                    "for one frame) and keep column-scan oracles in "
                    "tests/reference/"))
    return violations


# --- rule: no-splat-representation ------------------------------------------

SPLAT_REPRESENTATION = re.compile(r"splat_words|WordStorage|word_storage\.h|"
                                  r"storage_keepalive|mmap\s*\(")


def check_no_splat_representation(root):
    violations = []
    for path in iter_files(root, ["src"], CXX_EXTENSIONS):
        for i, line in enumerate(read_lines(path)):
            if allow_marker("no-splat-representation", line):
                continue
            match = SPLAT_REPRESENTATION.search(line)
            if match:
                violations.append(Violation(
                    "no-splat-representation", relpath(root, path), i + 1,
                    f"'{match.group(0)}' belongs to the removed second LUT "
                    "representation; kernels read the compact truth table "
                    "and models own their tables"))
    return violations


# --- rule: one-model-decoder ------------------------------------------------

DELETED_MODEL_ENTRY = re.compile(
    r"\b(?:read_model|read_conv_model|read_model_file|read_conv_model_file|"
    r"read_packed_model_file|is_packed_model_file|is_text_conv_model_file)\b")
RENAME_CALL = re.compile(r"(?<![\w.>])(?:std::|::)?rename\s*\(")
PUBLISH_HELPER_FILE = os.path.join("src", "core", "serialize.cpp")
DELETED_MAT_WEIGHTS = re.compile(
    r"\b(?:mat_weights|weights_at|kSecMatWeights)\b")


def check_one_model_decoder(root):
    violations = []
    for path in iter_files(root, ["src", "examples", "bench"],
                           CXX_EXTENSIONS):
        rel = relpath(root, path)
        in_src = rel.startswith("src" + os.sep)
        for i, line in enumerate(read_lines(path)):
            if allow_marker("one-model-decoder", line):
                continue
            match = DELETED_MODEL_ENTRY.search(line)
            if match:
                violations.append(Violation(
                    "one-model-decoder", rel, i + 1,
                    f"'{match.group(0)}' was a per-format model loader; "
                    "load through read_model_bytes / read_model_file_any"))
            match = DELETED_MAT_WEIGHTS.search(line)
            if in_src and match:
                violations.append(Violation(
                    "one-model-decoder", rel, i + 1,
                    f"'{match.group(0)}' stored MAT weights beside the MAT "
                    "table; a model keeps only mat_lut()"))
            if in_src and rel != PUBLISH_HELPER_FILE and \
                    RENAME_CALL.search(line.split("//", 1)[0]):
                violations.append(Violation(
                    "one-model-decoder", rel, i + 1,
                    "rename( outside the model publish helper; writers "
                    "publish through model_io::publish_model_file"))
    return violations


# --- rule: frame-payload-bound ----------------------------------------------

CONSTEXPR_BYTES = re.compile(
    r"constexpr\s+[\w:<>\s]+\s(k\w*(?:Payload|Bytes|Size|Len)\w*)\s*=\s*"
    r"([0-9][0-9a-fA-FxXuUlL'<>\s]*);")


def parse_int_expr(expr):
    """Parse `1u << 20`-style constant expressions; None if unsupported."""
    expr = expr.replace("'", "").strip()
    expr = re.sub(r"(?<=[0-9a-fA-FxX])[uUlL]+\b", "", expr)
    shift = re.fullmatch(r"(\S+)\s*<<\s*(\S+)", expr)
    try:
        if shift:
            return int(shift.group(1), 0) << int(shift.group(2), 0)
        return int(expr, 0)
    except ValueError:
        return None


def check_frame_payload_bound(root, protocol_header="src/serve/protocol.h"):
    violations = []
    path = os.path.join(root, protocol_header)
    if not os.path.isfile(path):
        violations.append(Violation(
            "frame-payload-bound", protocol_header, 0,
            "wire-protocol header not found (rule needs updating if the "
            "protocol moved)"))
        return violations
    lines = read_lines(path)
    constants = {}
    for i, line in enumerate(lines):
        match = CONSTEXPR_BYTES.search(line)
        if not match:
            continue
        value = parse_int_expr(match.group(2))
        if value is not None:
            constants[match.group(1)] = (value, i + 1)
    if "kMaxFramePayload" not in constants:
        violations.append(Violation(
            "frame-payload-bound", relpath(root, path), 0,
            "kMaxFramePayload not found or not parseable"))
        return violations
    cap = constants["kMaxFramePayload"][0]
    for name, (value, line_no) in constants.items():
        if name == "kMaxFramePayload":
            continue
        if allow_marker("frame-payload-bound", lines[line_no - 1]):
            continue
        if value > cap:
            violations.append(Violation(
                "frame-payload-bound", relpath(root, path), line_no,
                f"{name} = {value} exceeds kMaxFramePayload = {cap}; the "
                "server would reject its own frames"))
    return violations


# --- rule: no-rand-time -----------------------------------------------------

RAND_TIME = re.compile(r"(?<![\w:])(?:std::)?(rand|srand|time)\s*\(")


def check_no_rand_time(root):
    violations = []
    for path in iter_files(root, ["src"], CXX_EXTENSIONS):
        for i, line in enumerate(read_lines(path)):
            if allow_marker("no-rand-time", line):
                continue
            code = line.split("//", 1)[0]
            match = RAND_TIME.search(code)
            if match:
                violations.append(Violation(
                    "no-rand-time", relpath(root, path), i + 1,
                    f"{match.group(1)}() in src/ breaks the determinism "
                    "rule — seed an util/rng.h Rng, or use <chrono> "
                    "steady_clock for timeouts"))
    return violations


# --- rule: tsan-supp-clean --------------------------------------------------

def check_tsan_supp_clean(root):
    violations = []
    path = os.path.join(root, "tsan.supp")
    if not os.path.isfile(path):
        violations.append(Violation(
            "tsan-supp-clean", "tsan.supp", 0,
            "tsan.supp missing — the TSan CI leg points TSAN_OPTIONS at it"))
        return violations
    for i, line in enumerate(read_lines(path)):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "poetbin::" in stripped:
            violations.append(Violation(
                "tsan-supp-clean", "tsan.supp", i + 1,
                "suppression names a poetbin:: frame — fix or annotate the "
                "race at the source instead of muting it"))
    return violations


# --- rule: no-test-only-headers ---------------------------------------------

INCLUDE_LINE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
# Trees whose includes keep a src/ header alive; tests/ is not one of them.
INCLUDER_DIRS = ["src", "examples", "bench", "tools", "perfbench"]


def check_no_test_only_headers(root):
    src = os.path.join(root, "src")
    headers = {}  # include spelling ("hw/vhdl.h") -> repo-relative path
    for path in iter_files(root, ["src"], (".h", ".hpp")):
        headers[os.path.relpath(path, src).replace(os.sep, "/")] = path
    included = set()
    for path in iter_files(root, INCLUDER_DIRS, CXX_EXTENSIONS):
        own_header = os.path.splitext(path)[0]
        for line in read_lines(path):
            match = INCLUDE_LINE.match(line)
            if not match or match.group(1) not in headers:
                continue
            header_path = headers[match.group(1)]
            if os.path.splitext(header_path)[0] != own_header:
                included.add(match.group(1))
    violations = []
    for spelling, path in sorted(headers.items()):
        if spelling in included:
            continue
        first_line = read_lines(path)[:1]
        if first_line and allow_marker("no-test-only-headers", first_line[0]):
            continue
        violations.append(Violation(
            "no-test-only-headers", relpath(root, path), 1,
            "no file outside tests/ includes this header (its own .cpp "
            "does not count); delete the test-only subsystem or give it "
            "a production caller"))
    return violations


# --- rule: one-word-kernel-table ---------------------------------------------

REMOVED_WORD_KERNEL = re.compile(
    r"\b(?:and_words|or_words|xor_words|not_words|popcount_words|"
    r"entropy_sum|block_words)\b")
REMOVED_LUT_EVALUATOR = re.compile(
    r"\b(?:shannon_reduce|entry_word|eval_lut_word)\b")
WORD_OPS_CALL = re.compile(r"\bword_ops\s*\(\s*\)")
DT_DIR = os.path.join("src", "dt") + os.sep


def check_one_word_kernel_table(root):
    violations = []
    for path in iter_files(root, ["src"], CXX_EXTENSIONS):
        rel = relpath(root, path)
        for i, line in enumerate(read_lines(path)):
            if allow_marker("one-word-kernel-table", line):
                continue
            match = REMOVED_WORD_KERNEL.search(line)
            if match:
                violations.append(Violation(
                    "one-word-kernel-table", rel, i + 1,
                    f"'{match.group(0)}' was removed from WordOps; write "
                    "the word loop (or weighted_entropy_sum) at the call "
                    "site"))
            match = REMOVED_LUT_EVALUATOR.search(line)
            if match:
                violations.append(Violation(
                    "one-word-kernel-table", rel, i + 1,
                    f"'{match.group(0)}' was a second Shannon evaluator; "
                    "call WordOps::lut_reduce (util/word_backend_shannon.h)"))
            if rel.startswith(DT_DIR) and WORD_OPS_CALL.search(line):
                violations.append(Violation(
                    "one-word-kernel-table", rel, i + 1,
                    "src/dt/ does not dispatch through word_ops(); the "
                    "LevelDT scan's AND and entropy sum are plain code"))
    return violations


RULES = [
    check_memory_order_comment,
    check_atomic_model_publish,
    check_no_batched_shims,
    check_no_second_path_knobs,
    check_no_scalar_dataset_twins,
    check_no_splat_representation,
    check_one_model_decoder,
    check_frame_payload_bound,
    check_no_rand_time,
    check_tsan_supp_clean,
    check_no_test_only_headers,
    check_one_word_kernel_table,
]


def run_all(root):
    violations = []
    for rule in RULES:
        violations.extend(rule(root))
    return violations


# --- self-test ---------------------------------------------------------------

def write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


CLEAN_PROTOCOL = (
    "inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;\n"
    "inline constexpr std::size_t kFrameHeaderSize = 4;\n"
)


def seed_clean_tree(root):
    write(root, "src/serve/protocol.h", CLEAN_PROTOCOL)
    write(root, "src/core/good.cpp",
          "// order: relaxed - statistics counter only.\n"
          "n.fetch_add(1, std::memory_order_relaxed);\n")
    # The surviving word-pass entry points share a prefix with the deleted
    # scalar twins and must not trip no-scalar-dataset-twins.
    write(root, "src/core/good_batch.cpp",
          "BitVector RincModule::eval_dataset_batched(const BitMatrix& f) "
          "const {\n"
          "std::vector<int> PoetBin::predict_dataset_batched(\n")
    # The one decoder's entry points share prefixes with the deleted
    # loaders, and the publish helper's file may rename.
    write(root, "src/core/serialize.cpp",
          "return read_model_bytes(bytes.data(), bytes.size());\n"
          "if (std::rename(temp.c_str(), path.c_str()) != 0) {\n"
          "out << module.mat_lut().table().to_string() << '\\n';\n"
          "for (const auto weight : neuron.weights) out << weight;\n")
    write(root, "bench/good_load.cpp",
          "const auto loaded = read_model_file_any(path);\n")
    # The surviving entropy sum shares a suffix with the removed kernel,
    # and word_ops() stays legal outside src/dt/.
    write(root, "src/dt/good_scan.cpp",
          "total = weighted_entropy_sum(pairs.data(), n_pairs, 0.0);\n")
    write(root, "src/util/good_bits.cpp",
          "return word_ops().hamming_words(a, b, n_words);\n")
    # The one Shannon kernel's names share words with the removed
    # evaluators.
    write(root, "src/util/good_shannon.cpp",
          "      .lut_reduce = word_impl::shannon_lut_reduce<Scalar64Traits>,\n"
          "  return shannon_subtree<Traits, 6>(table, values, x);\n")
    write(root, "tools/push.sh", "mv model.tmp.$$ model.pbm\n")
    write(root, "tsan.supp", "# no suppressions\n")
    # Every src/ header has a production includer, the headers the other
    # rules' violations are seeded in included.
    write(root, "examples/good_includes.cpp",
          "".join(f'#include "{h}"\n' for h in (
              "serve/protocol.h", "core/bad_shim.h", "serve/bad_knob.h",
              "serve/bad_server.h", "dt/bad_lut.h", "core/bad_loader.h")))


# (rule name, relative path, file content) — one seeded violation per rule.
SELF_TEST_VIOLATIONS = [
    ("memory-order-comment", "src/core/bad_order.cpp",
     "epoch_.store(v, std::memory_order_release);\n"),
    ("atomic-model-publish", ".github/workflows/bad_push.yml",
     "      - run: cp new_model.pbm /srv/models/live.pbm\n"),
    ("no-batched-shims", "src/core/bad_shim.h",
     "std::vector<int> predict_dataset_batched(const BitMatrix& x, "
     "std::size_t n_threads);\n"),
    ("no-second-path-knobs", "src/serve/bad_knob.h",
     "  bool fused_argmax = true;\n"),
    ("no-second-path-knobs", "src/serve/bad_server.h",
     "  bool micro_batch = true;\n"),
    ("no-second-path-knobs", "bench/bad_bench.cpp",
     "  json.add(\"rinc2_train_word_parallel_ms\", ms);\n"),
    ("no-scalar-dataset-twins", "src/core/bad_rinc.cpp",
     "BitVector RincModule::eval_dataset(const BitMatrix& features) const {\n"),
    ("no-scalar-dataset-twins", "examples/bad_example.cpp",
     "  const double acc = model.accuracy_batched(x, labels, engine);\n"),
    ("no-scalar-dataset-twins", "src/core/bad_conv.cpp",
     "BitVector RincConvLayer::eval_frame(const BitVector& frame) const {\n"),
    ("no-scalar-dataset-twins", "examples/bad_conv_example.cpp",
     "bool eval_patch(const RincModule& module, const std::uint8_t* patch);\n"),
    ("no-splat-representation", "src/dt/bad_lut.h",
     "  std::span<const std::uint64_t> splat_words() const;\n"),
    ("one-model-decoder", "src/core/bad_loader.h",
     "IoResult<PoetBin> read_packed_model_file(const std::string& path);\n"),
    ("one-model-decoder", "bench/bad_load_bench.cpp",
     "  const IoResult<PoetBin> loaded = read_model_file(text_file);\n"),
    ("one-model-decoder", "src/serve/bad_publish.cpp",
     "  if (std::rename(temp.c_str(), path.c_str()) != 0) {\n"),
    ("one-model-decoder", "src/core/bad_mat_store.cpp",
     "  std::span<const double> mat_weights() const;\n"),
    ("one-model-decoder", "src/core/bad_tree.cpp",
     "    std::uint32_t weights_at = 0;\n"),
    ("one-model-decoder", "src/core/bad_packed.cpp",
     "  kSecMatWeights = 5,\n"),
    ("frame-payload-bound", "src/serve/protocol.h",
     CLEAN_PROTOCOL +
     "inline constexpr std::uint32_t kStatsPayloadBytes = 1u << 21;\n"),
    ("no-rand-time", "src/core/bad_rand.cpp",
     "int jitter = rand() % 100;\n"),
    ("tsan-supp-clean", "tsan.supp",
     "race:poetbin::PredictCache::probe\n"),
    ("no-test-only-headers", "src/hw/bad_orphan.h",
     "std::string generate_orphan_vhdl(const Netlist& netlist);\n"),
    ("one-word-kernel-table", "src/util/bad_backend.cpp",
     "      .xor_words = xor_words_avx2,\n"),
    ("one-word-kernel-table", "src/dt/bad_scan.cpp",
     "  word_ops().hamming_words(a, b, n_words);\n"),
    ("one-word-kernel-table", "src/util/bad_scalar.cpp",
     "    out[w] = shannon_reduce(table, arity, in.data(), scratch.data());\n"),
    ("one-word-kernel-table", "src/util/bad_entry.cpp",
     "    const std::uint64_t f0 = entry_word(table, 2 * k);\n"),
    ("one-word-kernel-table", "src/hw/bad_netlist.cpp",
     "std::uint64_t eval_lut_word(const BitVector& table, std::size_t offset,\n"),
]

# Further files a seeded violation needs: the orphan header is included by
# its own .cpp and by a test, neither of which keeps it alive.
SELF_TEST_EXTRA_FILES = {
    "no-test-only-headers": [
        ("src/hw/bad_orphan.cpp", '#include "hw/bad_orphan.h"\n'),
        ("tests/bad_orphan_test.cpp", '#include "hw/bad_orphan.h"\n'),
    ],
}


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as root:
        seed_clean_tree(root)
        clean = run_all(root)
        if clean:
            failures.append("clean tree reported violations:\n  " +
                            "\n  ".join(str(v) for v in clean))
        for rule, rel, content in SELF_TEST_VIOLATIONS:
            with tempfile.TemporaryDirectory() as seeded_root:
                seed_clean_tree(seeded_root)
                write(seeded_root, rel, content)
                for extra_rel, extra in SELF_TEST_EXTRA_FILES.get(rule, []):
                    write(seeded_root, extra_rel, extra)
                found = [v for v in run_all(seeded_root) if v.rule == rule]
                if not found:
                    failures.append(
                        f"rule '{rule}' did not fire on seeded violation "
                        f"in {rel}")
                other = [v for v in run_all(seeded_root) if v.rule != rule]
                if other:
                    failures.append(
                        f"seeding '{rule}' tripped unrelated rules: " +
                        "; ".join(str(v) for v in other))
        # The allow-marker must silence exactly the marked line.
        with tempfile.TemporaryDirectory() as seeded_root:
            seed_clean_tree(seeded_root)
            write(seeded_root, "src/core/allowed.cpp",
                  "x.store(1, std::memory_order_relaxed);"
                  "  // invariants: allow-memory-order-comment (test)\n")
            if run_all(seeded_root):
                failures.append("allow-marker did not suppress the rule")
    if failures:
        print("SELF-TEST FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    n_rules = len({rule for rule, _, _ in SELF_TEST_VIOLATIONS})
    print(f"self-test OK: all {n_rules} rules fire on "
          f"{len(SELF_TEST_VIOLATIONS)} seeded violations and pass a clean "
          "tree")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="PoET-BiN project-invariant linter")
    parser.add_argument("--root", default=None,
                        help="repository root (default: this script's "
                             "parent's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a seeded violation")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"error: '{root}' does not look like the repo root "
              "(no src/)", file=sys.stderr)
        return 2

    violations = run_all(root)
    if violations:
        for violation in violations:
            print(violation)
        print(f"\nFAIL: {len(violations)} invariant violation(s). See "
              "tools/check_invariants.py --help for the rules and the "
              "allow-marker escape hatch.")
        return 1
    print(f"OK: {len(RULES)} invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
