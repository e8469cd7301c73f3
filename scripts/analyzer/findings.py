"""Finding type shared by every check module."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Finding:
    check: str
    file: str       # repo-relative
    line: int
    symbol: str     # Class::field, function name, or "" when n/a
    message: str
    suppressed: bool = False
    reason: str = ""  # suppression reason when suppressed

    def key(self) -> tuple:
        """Dedup key: the same header indexed from many TUs must report
        once."""
        return (self.check, self.file, self.line, self.symbol)

    def suppression_keys(self) -> list[str]:
        keys = [f"{self.check}:{self.file}"]
        if self.symbol:
            keys.append(f"{self.check}:{self.file}:{self.symbol}")
        return keys

    def to_json(self) -> dict:
        d = {
            "check": self.check,
            "file": self.file,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "suppressed": self.suppressed,
        }
        if self.suppressed:
            d["reason"] = self.reason
        return d


@dataclass
class CheckConfig:
    """Repo-shape knobs shared by the checks; overridable in tests."""

    # lock-coverage -------------------------------------------------
    mutex_types: tuple[str, ...] = ("lcrs::Mutex", "Mutex")
    # Types that synchronize internally: a bare field of one of these in
    # a lock-owning class is not shared mutable state.
    internally_synced: tuple[str, ...] = (
        "CondVar", "Registry", "Counter", "Gauge", "Histogram",
        "std::atomic",
    )

    # wire-safety ---------------------------------------------------
    wire_reads: tuple[str, ...] = (
        "read_u32", "read_u64", "read_i64", "read_u16",
    )
    sized_containers: tuple[str, ...] = (
        "std::vector", "std::basic_string", "std::string", "std::deque",
    )

    # kernel-purity -------------------------------------------------
    kernel_file_prefixes: tuple[str, ...] = ("src/common/simd",)
    kernel_files: tuple[str, ...] = (
        "src/tensor/gemm.cpp",
        "src/binary/bitmatrix.cpp",
        "src/binary/xnor_gemm.cpp",
    )
    # Macro machinery whose expansion inside a kernel is sanctioned
    # (LCRS_CHECK / LCRS_ASSERT precondition checks).
    sanctioned_macro_files: tuple[str, ...] = ("common/error.h",)
    sanctioned_calls: tuple[str, ...] = ("throw_check_failure",)
    allocating_types: tuple[str, ...] = (
        "std::vector", "std::basic_string", "std::string", "std::deque",
        "std::map", "std::unordered_map", "Tensor", "BitMatrix",
    )
    allocating_members: tuple[str, ...] = (
        "resize", "reserve", "push_back", "emplace_back", "assign",
        "insert", "append",
    )
    allocator_calls: tuple[str, ...] = (
        "malloc", "calloc", "realloc", "free", "aligned_alloc",
        "posix_memalign", "operator new", "operator delete",
    )
    locking_members: tuple[str, ...] = (
        "lock", "unlock", "try_lock", "wait", "wait_for_us",
    )
    lock_types: tuple[str, ...] = ("MutexLock", "lcrs::MutexLock")

    # metric-catalogue ----------------------------------------------
    registration_members: tuple[str, ...] = ("counter", "gauge", "histogram")
    named_instrument_types: tuple[str, ...] = ("Span",)
    catalogue_exempt_files: tuple[str, ...] = (
        "src/common/obs/metric_names.h",
        "src/common/obs/metrics.h",
        "src/common/obs/metrics.cpp",
    )
    catalogue_scope: tuple[str, ...] = ("src/", "bench/")
