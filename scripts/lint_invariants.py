#!/usr/bin/env python3
"""Project-specific invariant linter for the LCRS tree.

Encodes rules no generic tool knows about this codebase:

  randomness    All stochastic behaviour must flow through lcrs::Rng
                (src/common/rng.h) so experiments replay from one seed.
                std::rand/srand/time(NULL) seeding, std::random_device,
                and raw engine construction are banned outside rng.h.
  naked-new     src/ owns memory through containers and smart pointers;
                naked `new` / `delete` expressions are banned.
  pragma-once   Every header in src/ (and bench/) starts its include
                guard with #pragma once.
  kernel-check  Public (non-anonymous-namespace) functions in src/tensor,
                src/nn, src/binary that consume Tensor arguments must
                validate shapes with LCRS_CHECK / LCRS_ASSERT (directly
                or via a check_* / *_checked helper) before touching data.
  metric-name   Observability metric names live in one catalogue
                (src/common/obs/metric_names.h). Registering an
                instrument with an inline string literal --
                counter("..."), gauge("..."), histogram("...") -- is
                banned in src/ and bench/ outside the catalogue and the
                registry machinery itself (metric_names.h, metrics.h,
                metrics.cpp), so a name cannot silently fork into two
                spellings. ops_server.cpp and flight_recorder.cpp are
                deliberately covered.
  raw-sync      All blocking synchronisation in src/ goes through the
                annotated wrappers in src/common/sync.h (lcrs::Mutex,
                lcrs::MutexLock, lcrs::CondVar) so Clang -Wthread-safety
                and the runtime lock-order checker see every lock. Raw
                std::mutex / std::lock_guard / std::unique_lock /
                std::condition_variable & friends are banned outside
                common/sync.{h,cpp} (which wrap them).
  simd-intrinsics
                Raw SIMD intrinsics (immintrin/arm_neon includes, _mm*
                calls, __m128/__m256 vector types, NEON vld1/vst1) live
                only in the dispatch layer (src/common/simd*) and the
                vetted kernel files (tensor/gemm.cpp, binary/bitmatrix.cpp,
                binary/xnor_gemm.cpp). Everything else calls the
                dispatched wrappers, so LCRS_SIMD=scalar provably covers
                every vector code path and parity tests cannot be
                bypassed by a stray inline intrinsic.

  fuzz-registration
                Every harness fuzz/fuzz_*.cpp must be registered in
                fuzz/CMakeLists.txt (LCRS_FUZZ_HARNESSES) and have a
                non-empty committed corpus under fuzz/corpus/<name>/ --
                an unregistered harness silently never runs, an empty
                corpus replays nothing.
  tensor-index-hot
                Inference-path bodies -- functions named forward* or
                run_* in src/nn, src/binary and src/webinfer -- may not
                subscript a Tensor-typed parameter or local (`x[i]`).
                Tensor::operator[] bounds-checks every element, which
                keeps the loop scalar; hot loops index through data()
                over a numel() hoisted once. Cold paths (per-channel
                setup, tiny reductions) are allowlisted by function.
  wire-resize   Parser code in src/ may not size an allocation
                (resize/reserve/container construction) from a value
                read off the wire (ByteReader read_u32/u64/i64) without
                an intervening bound check naming that value (an
                if-guard or LCRS_CHECK). A forged length field must fail
                as ParseError before the allocator sees it.

Vetted exceptions live in scripts/invariant_allowlist.txt as
`rule:path[:symbol]  # reason` lines; path is repo-relative.

Three of these rules (wire-resize, simd-intrinsics, metric-name) have
AST-level successors in scripts/analyzer (wire-safety dataflow,
kernel-purity intrinsic confinement, metric-catalogue), which see
through macros, line breaks, and string temporaries the regexes cannot.
`--delegate-ast-rules` skips the regex versions (and ignores their
allowlist entries) so a clang-equipped run enforces each invariant
exactly once, via scripts/check_analyzer.sh; without the flag the regex
fallbacks keep gcc-only machines covered.

Exit status: 0 when clean, 1 when any unallowlisted violation is found.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST_PATH = REPO / "scripts" / "invariant_allowlist.txt"

CPP_SUFFIXES = {".cpp", ".h"}

RANDOMNESS_PATTERNS = [
    (re.compile(r"\bstd::rand\b|\bsrand\s*\("), "std::rand/srand"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)\s*\)"), "time(NULL) seeding"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine)"
                r"\s*\("), "raw engine construction"),
]

NAKED_NEW = re.compile(r"(?<![\w.])new\s+[A-Za-z_(:<]")
NAKED_DELETE = re.compile(r"(?<![\w.])delete(\s*\[\s*\])?\s+[A-Za-z_(*]")

# Namespace-scope function definition headers. Deliberately loose: we
# post-filter on the parameter list mentioning Tensor.
FUNC_DEF = re.compile(
    r"^(?:template\s*<[^>]*>\s*)?"
    r"(?P<ret>[A-Za-z_][\w:<>,&*\s]*?)\s+"
    r"(?P<name>(?:[A-Za-z_][\w]*::)*~?[A-Za-z_][\w]*)\s*"
    r"\((?P<params>[^;{}()]*(?:\([^()]*\)[^;{}()]*)*)\)\s*"
    r"(?:const\s*)?(?:noexcept\s*)?{",
    re.MULTILINE | re.DOTALL,
)

CHECK_MARKERS = re.compile(
    r"\bLCRS_CHECK\b|\bLCRS_ASSERT\b|\bcheck_[a-z_]*\s*\(|_checked\s*\(")

# Instrument registration fed a string literal. `\b` keeps find_counter()
# etc. from matching (the preceding `_` is a word character). Runs on
# stripped code, where literal *contents* are blanked but the quote
# characters survive, so the opening `"` is still visible.
METRIC_LITERAL = re.compile(r"\b(?:counter|gauge|histogram)\s*\(\s*\"")

# Raw std blocking-synchronisation vocabulary. Everything here has an
# annotated equivalent in src/common/sync.h; using the std type directly
# hides the lock from -Wthread-safety and the lock-order checker.
RAW_SYNC = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b")

# The wrapper layer itself: the only place allowed to hold raw std sync.
RAW_SYNC_EXEMPT = {"src/common/sync.h", "src/common/sync.cpp"}

# Raw SIMD vocabulary: vendor headers, x86 _mm*/__m* names, NEON
# load/store/float32x4_t. Runs on stripped code, so mentions in comments
# and strings do not trip it.
SIMD_INTRINSICS = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|emmintrin|xmmintrin|smmintrin|"
    r"tmmintrin|arm_neon)\.h>|"
    r"\b_mm(?:256|512)?_[a-z0-9_]+\s*\(|"
    r"\b__m(?:128|256|512)[di]?\b|"
    r"\bfloat32x[24]_t\b|\bvld1q?_[a-z0-9_]+|\bvst1q?_[a-z0-9_]+")

# The dispatch layer plus the vetted kernel files; the simd* prefix covers
# common/simd.{h,cpp} and common/simd_math.{h,cpp}.
SIMD_EXEMPT_PREFIXES = ("src/common/simd",)
SIMD_EXEMPT_FILES = {
    "src/tensor/gemm.cpp",
    "src/binary/bitmatrix.cpp",
    "src/binary/xnor_gemm.cpp",
}

# Inference-path bodies the tensor-index-hot rule scans: forward,
# forward_fast, forward_shared, ..., and the webinfer run_* op kernels.
HOT_FUNC = re.compile(r"(?:^|::)(?:forward\w*|run_\w+)$")
HOT_DIRS = ("src/nn/", "src/binary/", "src/webinfer/")
# Tensor-typed parameter or local declaration: captures the name.
TENSOR_DECL = re.compile(r"\bTensor\s*[&*]?\s*&?\s*(\w+)\s*(?=[,)=({;]|$)")

# A local variable (or member) assigned straight from a ByteReader length/
# count read. The captured name is then tracked forward for allocation use.
WIRE_READ = re.compile(
    r"\b(\w+)\s*=\s*\w+(?:\.|->)read_(?:u32|u64|i64)\s*\(\s*\)")

# How far past the read we look for an unguarded allocation. Generous
# enough to cover any parser function body in this repo.
WIRE_WINDOW = 2000


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving offsets."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(ch + " " * (j - i - 2) + (ch if j - i >= 2 else ""))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def anonymous_namespace_spans(code: str) -> list[tuple[int, int]]:
    """Byte spans covered by `namespace { ... }` blocks."""
    spans = []
    for m in re.finditer(r"\bnamespace\s*{", code):
        depth, i = 1, m.end()
        while i < len(code) and depth:
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
            i += 1
        spans.append((m.start(), i))
    return spans


def body_span(code: str, open_brace: int) -> int:
    depth, i = 1, open_brace + 1
    while i < len(code) and depth:
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
        i += 1
    return i


# Rules superseded by scripts/analyzer when clang is available; see
# --delegate-ast-rules.
AST_DELEGATED_RULES = ("wire-resize", "simd-intrinsics", "metric-name")


class Linter:
    def __init__(self, delegate_ast: bool = False) -> None:
        self.violations: list[tuple[str, str, int, str]] = []
        self.allow: set[str] = set()
        self.used_allow: set[str] = set()
        self.delegate_ast = delegate_ast

    def load_allowlist(self) -> None:
        if not ALLOWLIST_PATH.exists():
            return
        for raw in ALLOWLIST_PATH.read_text().splitlines():
            entry = raw.split("#", 1)[0].strip()
            if not entry:
                continue
            if self.delegate_ast and entry.startswith(
                    tuple(r + ":" for r in AST_DELEGATED_RULES)):
                continue  # the analyzer's suppression file owns these
            self.allow.add(entry)

    def report(self, rule: str, path: Path, line: int, detail: str,
               symbol: str = "") -> None:
        rel = path.relative_to(REPO).as_posix()
        keys = [f"{rule}:{rel}"]
        if symbol:
            keys.append(f"{rule}:{rel}:{symbol}")
        for key in keys:
            if key in self.allow:
                self.used_allow.add(key)
                return
        self.violations.append((rule, rel, line, detail))

    # --- rules ---

    def lint_randomness(self, path: Path, code: str) -> None:
        if path.relative_to(REPO).as_posix() == "src/common/rng.h":
            return
        for pattern, what in RANDOMNESS_PATTERNS:
            for m in pattern.finditer(code):
                line = code.count("\n", 0, m.start()) + 1
                self.report("randomness", path, line,
                            f"{what} -- route randomness through lcrs::Rng")

    def lint_naked_new(self, path: Path, code: str) -> None:
        for pattern, what in ((NAKED_NEW, "naked new"),
                              (NAKED_DELETE, "naked delete")):
            for m in pattern.finditer(code):
                line = code.count("\n", 0, m.start()) + 1
                self.report("naked-new", path, line,
                            f"{what} -- use containers/std::make_unique")

    def lint_pragma_once(self, path: Path, original: str) -> None:
        if path.suffix != ".h":
            return
        if "#pragma once" not in original:
            self.report("pragma-once", path, 1, "header missing #pragma once")

    def lint_kernel_checks(self, path: Path, code: str) -> None:
        rel = path.relative_to(REPO).as_posix()
        if path.suffix != ".cpp" or not rel.startswith(
                ("src/tensor/", "src/nn/", "src/binary/")):
            return
        anon = anonymous_namespace_spans(code)
        pos = 0
        while True:
            m = FUNC_DEF.search(code, pos)
            if not m:
                break
            open_brace = m.end() - 1
            end = body_span(code, open_brace)
            pos = end
            if any(a <= m.start() < b for a, b in anon):
                continue
            params = m.group("params")
            if "Tensor" not in params:
                continue
            name = m.group("name")
            ret = m.group("ret").strip()
            if ret in ("return", "else", "do") or "=" in ret:
                continue  # mis-parsed statement, not a definition
            body = code[open_brace:end]
            if not CHECK_MARKERS.search(body):
                line = code.count("\n", 0, m.start()) + 1
                self.report(
                    "kernel-check", path, line,
                    f"{name}() takes Tensor args but has no LCRS_CHECK/"
                    "LCRS_ASSERT shape validation", symbol=name)

    def lint_tensor_index_hot(self, path: Path, code: str) -> None:
        rel = path.relative_to(REPO).as_posix()
        if path.suffix != ".cpp" or not rel.startswith(HOT_DIRS):
            return
        pos = 0
        while True:
            m = FUNC_DEF.search(code, pos)
            if not m:
                break
            open_brace = m.end() - 1
            end = body_span(code, open_brace)
            pos = end
            name = m.group("name")
            if not HOT_FUNC.search(name):
                continue
            body = code[open_brace:end]
            tensors = set(TENSOR_DECL.findall(m.group("params")))
            tensors |= set(TENSOR_DECL.findall(body))
            for var in sorted(tensors):
                hit = re.search(rf"(?<![\w.>]){var}\s*\[", body)
                if hit:
                    line = code.count("\n", 0, open_brace + hit.start()) + 1
                    self.report(
                        "tensor-index-hot", path, line,
                        f"{name}() subscripts Tensor `{var}` -- index "
                        "through data() over a hoisted numel()",
                        symbol=name)

    def lint_raw_sync(self, path: Path, code: str) -> None:
        rel = path.relative_to(REPO).as_posix()
        if rel in RAW_SYNC_EXEMPT:
            return
        for m in RAW_SYNC.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            self.report(
                "raw-sync", path, line,
                f"raw {m.group(0)} -- use lcrs::Mutex/MutexLock/CondVar "
                "from common/sync.h (annotated + lock-order checked)")

    def lint_simd_intrinsics(self, path: Path, code: str) -> None:
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(SIMD_EXEMPT_PREFIXES) or rel in SIMD_EXEMPT_FILES:
            return
        for m in SIMD_INTRINSICS.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            self.report(
                "simd-intrinsics", path, line,
                f"raw intrinsic `{m.group(0).strip()}` outside the SIMD "
                "dispatch layer -- add a dispatched kernel under "
                "src/common/simd* or the vetted kernel files instead")

    def lint_wire_resize(self, path: Path, code: str) -> None:
        for m in WIRE_READ.finditer(code):
            var = m.group(1)
            window = code[m.end():m.end() + WIRE_WINDOW]
            alloc = re.search(
                rf"(?:\.|->)(?:resize|reserve)\s*\(\s*[^()]*\b{var}\b|"
                rf"\bstd::vector\s*<[^;=]*>\s+\w+\s*\(\s*[^()]*\b{var}\b|"
                rf"\bnew\b[^;]*\b{var}\b", window)
            if not alloc:
                continue
            guarded = re.search(
                rf"if\s*\([^;{{]*\b{var}\b|LCRS_CHECK\s*\([^;]*\b{var}\b",
                window[:alloc.start()])
            if not guarded:
                line = code.count("\n", 0, m.start()) + 1
                self.report(
                    "wire-resize", path, line,
                    f"`{var}` comes off the wire and sizes an allocation "
                    "with no intervening bound check -- validate against "
                    "remaining()/a format cap before allocating",
                    symbol=var)

    def lint_fuzz_registration(self) -> None:
        fuzz_dir = REPO / "fuzz"
        cmake = fuzz_dir / "CMakeLists.txt"
        if not fuzz_dir.is_dir():
            return
        cmake_text = cmake.read_text() if cmake.exists() else ""
        for harness in sorted(fuzz_dir.glob("fuzz_*.cpp")):
            name = harness.stem.removeprefix("fuzz_")
            if not re.search(rf"^\s*{re.escape(name)}\s*$", cmake_text,
                             re.MULTILINE):
                self.report(
                    "fuzz-registration", harness, 1,
                    f"harness not listed in fuzz/CMakeLists.txt "
                    f"LCRS_FUZZ_HARNESSES (expected entry `{name}`)")
            corpus = fuzz_dir / "corpus" / name
            if not (corpus.is_dir() and any(corpus.iterdir())):
                self.report(
                    "fuzz-registration", harness, 1,
                    f"no committed corpus under fuzz/corpus/{name}/ -- "
                    "add seeds via fuzz/gen_seeds.cpp")

    # Only the catalogue and the registry machinery itself may mention
    # instrument names inline; every other obs file (ops_server,
    # flight_recorder, trace) registers through metric_names.h like the
    # rest of the tree.
    METRIC_NAME_EXEMPT = {
        "src/common/obs/metric_names.h",
        "src/common/obs/metrics.h",
        "src/common/obs/metrics.cpp",
    }

    def lint_metric_names(self, path: Path, code: str) -> None:
        rel = path.relative_to(REPO).as_posix()
        if rel in self.METRIC_NAME_EXEMPT:
            return
        for m in METRIC_LITERAL.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            self.report(
                "metric-name", path, line,
                "inline string literal at an instrument registration -- "
                "use a name from common/obs/metric_names.h")

    # --- driver ---

    def run(self, roots: list[Path]) -> int:
        self.load_allowlist()
        if self.delegate_ast:
            print("lint_invariants: delegating "
                  + ", ".join(AST_DELEGATED_RULES)
                  + " to the AST analyzer (scripts/check_analyzer.sh)")
        files = sorted(
            p for root in roots for p in root.rglob("*")
            if p.suffix in CPP_SUFFIXES and p.is_file())
        for path in files:
            original = path.read_text(errors="replace")
            code = strip_comments_and_strings(original)
            rel = path.relative_to(REPO).as_posix()
            self.lint_pragma_once(path, original)
            if rel.startswith("src/"):
                self.lint_randomness(path, code)
                self.lint_naked_new(path, code)
                self.lint_raw_sync(path, code)
                if not self.delegate_ast:
                    self.lint_wire_resize(path, code)
            if rel.startswith(("src/", "bench/")):
                if not self.delegate_ast:
                    self.lint_metric_names(path, code)
                    self.lint_simd_intrinsics(path, code)
            self.lint_kernel_checks(path, code)
            self.lint_tensor_index_hot(path, code)
        self.lint_fuzz_registration()
        for rule, rel, line, detail in self.violations:
            print(f"{rel}:{line}: [{rule}] {detail}")
        stale = self.allow - self.used_allow
        for key in sorted(stale):
            print(f"allowlist: stale entry no longer matched: {key}")
        if self.violations or stale:
            print(f"lint_invariants: {len(self.violations)} violation(s), "
                  f"{len(stale)} stale allowlist entr(ies)")
            return 1
        print("lint_invariants: clean")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*",
                        help="roots to lint (default: src/ bench/)")
    parser.add_argument("--delegate-ast-rules", action="store_true",
                        help="skip the rules superseded by the AST "
                             "analyzer (run scripts/check_analyzer.sh "
                             "alongside)")
    args = parser.parse_args()
    roots = ([Path(p).resolve() for p in args.paths] if args.paths
             else [REPO / "src", REPO / "bench"])
    return Linter(delegate_ast=args.delegate_ast_rules).run(roots)


if __name__ == "__main__":
    sys.exit(main())
