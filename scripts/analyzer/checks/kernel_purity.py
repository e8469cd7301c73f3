"""kernel-purity: SIMD dispatch/kernel code neither allocates, locks,
nor throws; raw intrinsics stay confined to the vetted files.

Two obligations:

  1. Purity of kernel functions. Every function defined in
     src/common/simd* or a vetted kernel file (tensor/gemm.cpp,
     binary/bitmatrix.cpp, binary/xnor_gemm.cpp) must not

       * allocate: operator new, malloc-family calls, growth member
         calls (resize/reserve/push_back/...), or local construction of
         an allocating type (std::vector, Tensor, BitMatrix, ...);
       * lock: lcrs::MutexLock construction or lock()/wait() member
         calls (kernels run under the caller's scheduling; a hidden
         lock turns a data-parallel inner loop into a convoy);
       * throw: a CXXThrowExpr (precondition failures go through
         LCRS_CHECK, whose expansion -- spelled in common/error.h and
         funneled through throw_check_failure -- is sanctioned).

     Entry points that allocate by design (output tensors, prepare-time
     weight packing, hoisted per-call scratch) are suppressed in
     scripts/analyzer/suppressions.txt with the reason recorded; the
     check's job is that a *new* allocation or lock cannot appear in a
     kernel silently.

  2. Intrinsic confinement, the AST-level successor of the regex
     `simd-intrinsics` rule: a call to an _mm*/__builtin_ia32_*/NEON
     vld1/vst1 intrinsic or a local of a vendor vector type (__m128...,
     float32x4_t) anywhere in src/ or bench/ *outside* the confined
     files means LCRS_SIMD=scalar no longer provably covers every
     vector path. Unlike the regex, this sees through macros and flags
     only code that actually compiles into the TU.
"""

from __future__ import annotations

import re

from ..astjson import (Node, callee_name, node_file, node_line, qual_type,
                       spelling_file, walk)
from ..findings import CheckConfig, Finding
from ..index import FunctionInfo, TuIndex

_INTRINSIC_CALL = re.compile(r"^(?:_mm(?:256|512)?_|__builtin_ia32_|"
                             r"vld[1-4]q?_|vst[1-4]q?_)")
_VECTOR_TYPE = re.compile(r"__m(?:128|256|512)[di]?\b|float32x[24]_t|"
                          r"int(?:8|16|32|64)x(?:2|4|8|16)_t")


def _kernel_file(rel: str, cfg: CheckConfig) -> bool:
    return rel.startswith(cfg.kernel_file_prefixes) or rel in cfg.kernel_files


def _sanctioned(node: Node, cfg: CheckConfig) -> bool:
    """Macro-expanded nodes spelled in the LCRS_CHECK machinery."""
    sp = node.get("_spelling_file")
    return bool(sp) and sp.endswith(cfg.sanctioned_macro_files)


def _purity_findings(fn: FunctionInfo, cfg: CheckConfig,
                     out: list[Finding]) -> None:
    def report(node: Node, what: str) -> None:
        out.append(Finding(
            check="kernel-purity",
            file=fn.file,
            line=node_line(node) or fn.line,
            symbol=fn.name,
            message=(f"kernel function {fn.name}() {what} -- kernels must "
                     "be allocation-, lock-, and throw-free (suppress "
                     "prepare-time entry points with a reason)"),
        ))

    # Walk the whole definition (constructor initializers included).
    for node in walk(fn.node):
        if _sanctioned(node, cfg):
            continue
        kind = node.get("kind")
        if kind == "CXXNewExpr":
            report(node, "allocates with operator new")
        elif kind == "CXXThrowExpr":
            report(node, "throws directly (use LCRS_CHECK)")
        elif kind == "CallExpr":
            name = callee_name(node)
            if name in cfg.allocator_calls:
                report(node, f"calls allocator `{name}`")
        elif kind == "CXXMemberCallExpr":
            name = callee_name(node)
            if name in cfg.allocating_members:
                report(node, f"grows a container via .{name}()")
            elif name in cfg.locking_members:
                report(node, f"synchronizes via .{name}()")
        elif kind == "VarDecl":
            qt = qual_type(node)
            if any(t in qt for t in cfg.lock_types):
                report(node, "takes a lock (MutexLock)")
            elif node.get("init") and _allocating_type(qt, cfg):
                report(node, f"constructs allocating local `{qt}`")
        elif kind == "CXXConstructExpr" and node.get("_ctor_init"):
            # Constructor member initializers of allocating types.
            qt = qual_type(node)
            if _allocating_type(qt, cfg) and node.get("inner"):
                report(node, f"allocates member of type `{qt}`")


def _allocating_type(qt: str, cfg: CheckConfig) -> bool:
    base = qt.removeprefix("const ")
    if base.endswith(("&", "*")):
        return False
    return any(base.startswith(t) or base.startswith("lcrs::" + t) or
               ("::" + t) in base.split("<", 1)[0]
               for t in cfg.allocating_types)


def _confinement_findings(idx: TuIndex, cfg: CheckConfig,
                          out: list[Finding]) -> None:
    for fn in idx.functions:
        if _kernel_file(fn.file, cfg):
            continue
        if not fn.file.startswith(("src/", "bench/")):
            continue
        for node in walk(fn.node):
            kind = node.get("kind")
            if kind in ("CallExpr", "CXXMemberCallExpr"):
                name = callee_name(node)
                if name and _INTRINSIC_CALL.match(name):
                    out.append(Finding(
                        check="kernel-purity",
                        file=fn.file,
                        line=node_line(node) or fn.line,
                        symbol=fn.name,
                        message=(
                            f"raw intrinsic `{name}` outside the SIMD "
                            "dispatch layer -- add a dispatched kernel "
                            "under src/common/simd* or a vetted kernel "
                            "file instead"),
                    ))
            elif kind == "VarDecl" and _VECTOR_TYPE.search(qual_type(node)):
                out.append(Finding(
                    check="kernel-purity",
                    file=fn.file,
                    line=node_line(node) or fn.line,
                    symbol=fn.name,
                    message=(
                        f"vendor vector type `{qual_type(node)}` outside "
                        "the SIMD dispatch layer -- use the dispatched "
                        "wrappers so LCRS_SIMD=scalar covers this path"),
                ))


def _mark_ctor_inits(fn: FunctionInfo) -> None:
    """Tags the direct CXXConstructExpr children of constructor member
    initializers so allocation there is attributed (the body walk cannot
    otherwise tell an initializer from an argument temporary)."""
    if fn.node.get("kind") != "CXXConstructorDecl":
        return
    for child in fn.node.get("inner") or []:
        if isinstance(child, dict) and \
                child.get("kind") == "CXXCtorInitializer":
            for sub in walk(child):
                if sub.get("kind") == "CXXConstructExpr":
                    sub["_ctor_init"] = True


def run(indexes: list[TuIndex], cfg: CheckConfig) -> list[Finding]:
    findings: list[Finding] = []
    for idx in indexes:
        for fn in idx.functions:
            if _kernel_file(fn.file, cfg):
                _mark_ctor_inits(fn)
                _purity_findings(fn, cfg, findings)
        _confinement_findings(idx, cfg, findings)
    return findings
