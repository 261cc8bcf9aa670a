"""The C replay kernel: build, load, and the on-disk cache.

The scalar replay kernel (:mod:`repro.cpu.replay`) is generated
Python; ``kernel.c`` beside this module is the same machine written in
C -- ``repro_replay`` for event-stream replays, ``repro_dual`` for
the dual-issue machine of Section 6, and ``repro_classify`` for the
blocking caches' functional classification
(:func:`repro.sim.stream.functional_summary`).  Every MSHR
organization and every numeric setting (set mask, ways, limits,
penalty, sub-block layout) is a runtime parameter
(:data:`PARAM_SLOTS`), so one compiled kernel serves every cell of
every sweep.

Build pipeline: probe for a compiler (``REPRO_CC`` overrides; ``cc`` /
``gcc`` / ``clang`` on PATH otherwise), compile ``kernel.c`` with
:data:`CFLAGS` into the kernel cache next to the result store
(``<cache-root>/kernels/``), and load it through cffi in ABI mode
(ctypes when cffi is unavailable -- both just ``dlopen`` the ``.so``).
The cache entry is named by a digest of the source text, the flags,
:data:`KERNEL_SCHEMA` and :data:`~repro.sim.simulator.ENGINE_VERSION`,
so any source, flag or semantics change builds a new kernel;
``python -m repro cache gc`` removes every entry of another digest.
No compiler, failed build, missing binding: the caller falls back to
the scalar replay, the reference dual-issue loop or the Python
classification (:mod:`repro.cpu.replay_cnative` tags the cause of a
replay or dual-issue cell's fallback).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.errors import SimulationError

#: Bumped when the cache entry layout changes in a way the source
#: digest would not capture.
KERNEL_SCHEMA = 2

#: Kernel-cache directory name under the result-store root.
KERNEL_DIR_NAME = "kernels"

#: The kernel's C source, shipped as package data.
KERNEL_PATH = Path(__file__).with_name("kernel.c")

#: Runtime parameter block layout (``const i64 *p``); keep in step
#: with the ``P_*`` enum in ``kernel.c``.
PARAM_SLOTS = (
    "it1", "n_slots", "tail_gap", "setmask", "ways", "maxm", "maxf",
    "maxs", "nsub", "sublim", "line_mask", "sub_shift", "ports",
    "penalty", "offset_bits", "blocking", "perfect", "limited", "wma",
)

#: An absent limit: no count of misses, fetches or fields reaches it.
NO_LIMIT = 1 << 62

#: Raw counter block written by the kernel (``i64 *out``): 40 shared
#: counters, then the dual-issue driver's truedep and blocking misses.
OUT_SLOTS = 42

#: Flags of every kernel build; they key the cache like the source
#: does.  ``-O2`` replays faster than ``-O1`` or ``-O3`` and still
#: builds in well under a second (docs/performance.md).
CFLAGS = ("-O2", "-shared", "-fPIC")


class KernelBuildError(SimulationError):
    """The C kernel failed to compile or load."""


def kernel_source() -> str:
    """The text of ``kernel.c``."""
    return KERNEL_PATH.read_text()


# -- compiler probe ------------------------------------------------------------

_CC_CACHE: Dict[str, Optional[str]] = {}


def find_compiler() -> Optional[str]:
    """The C compiler to build kernels with, or ``None``.

    ``REPRO_CC`` overrides the probe entirely: its value is resolved
    through PATH, and a value that resolves to nothing means *no
    compiler* (the forced-fallback hook the tests and the
    compiler-less CI job use).  Otherwise the first of ``cc`` /
    ``gcc`` / ``clang`` on PATH wins.  Results are memoized per
    override value; :func:`reset_probe` re-arms the probe for tests.
    """
    key = os.environ.get("REPRO_CC", "")
    if key in _CC_CACHE:
        return _CC_CACHE[key]
    if key:
        cc = shutil.which(key)
    else:
        cc = None
        for candidate in ("cc", "gcc", "clang"):
            cc = shutil.which(candidate)
            if cc:
                break
    _CC_CACHE[key] = cc
    return cc


def reset_probe() -> None:
    """Forget memoized compiler probes, the kernel and its failure."""
    global _KERNEL, _BUILD_FAILURE
    _CC_CACHE.clear()
    _KERNEL = None
    _BUILD_FAILURE = None


# -- on-disk cache -------------------------------------------------------------


def kernel_cache_dir() -> Path:
    """Where compiled kernels live: ``<result-store root>/kernels``.

    Follows ``REPRO_CACHE_DIR`` like the result store, but is *not*
    disabled by ``REPRO_CACHE=0`` -- a shared object must exist on
    disk to be dlopen'd, and a build cache has no staleness problem
    the digest key does not already solve.
    """
    from repro.sim.resultstore import DEFAULT_ROOT

    root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_ROOT
    return Path(root).expanduser() / KERNEL_DIR_NAME


def _engine_version() -> str:
    from repro.sim.simulator import ENGINE_VERSION

    return ENGINE_VERSION


def kernel_digest() -> str:
    """Content key: source text + flags + engine version + schema."""
    h = hashlib.sha256()
    h.update(_engine_version().encode())
    h.update(repr((KERNEL_SCHEMA, CFLAGS)).encode())
    h.update(kernel_source().encode())
    return h.hexdigest()


def _entry_paths(digest: str) -> Tuple[Path, Path, Path]:
    base = kernel_cache_dir() / f"kernel-{digest[:16]}"
    return (base.with_suffix(".c"), base.with_suffix(".so"),
            base.with_suffix(".json"))


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def compile_kernel_so() -> Tuple[Path, float, bool]:
    """Ensure the kernel's ``.so`` exists; return (path, secs, built).

    ``secs`` is the wall-clock compile time (0.0 on a disk hit) so the
    profiler can report build cost separately from execution.
    Concurrent builders race benignly: both produce identical bytes
    and the atomic rename makes the last writer win.
    """
    cc = find_compiler()
    if cc is None:
        raise KernelBuildError("no C compiler (REPRO_CC / cc / gcc / clang)")
    source = kernel_source()
    digest = kernel_digest()
    c_path, so_path, meta_path = _entry_paths(digest)
    if so_path.exists():
        return so_path, 0.0, False
    started = time.perf_counter()
    _atomic_write(c_path, source.encode())
    fd, tmp_so = tempfile.mkstemp(dir=str(so_path.parent),
                                  prefix=so_path.name + ".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp_so, str(c_path)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise KernelBuildError(
                f"{cc} failed: {proc.stderr.strip()[:500]}")
        os.replace(tmp_so, so_path)
    except BaseException:
        try:
            os.unlink(tmp_so)
        except OSError:
            pass
        raise
    meta = {
        "schema": KERNEL_SCHEMA,
        "engine_version": _engine_version(),
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
        "digest": digest,
        "cc": cc,
        "cflags": list(CFLAGS),
    }
    _atomic_write(meta_path, json.dumps(meta, indent=2).encode())
    return so_path, time.perf_counter() - started, True


# -- bindings ------------------------------------------------------------------

_CDEF = (
    "long long repro_replay(const long long *, const long long *, "
    "const long long *, const long long *, const long long *, "
    "const long long *, const long long *, long long **, long long **, "
    "long long *, long long *, long long *, long long *);"
    "long long repro_dual(const long long *, const long long *, "
    "const long long *, const long long *, const long long *, "
    "long long **, long long *, long long *, long long *, long long *);"
    "long long repro_classify(const long long *, const long long *, "
    "long long **, long long *, long long *, long long *);"
)


class _CffiBinding:
    """ABI-mode cffi: ``dlopen`` the cached shared object."""

    name = "cffi"

    def __init__(self) -> None:
        import cffi

        self._ffi = cffi.FFI()
        self._ffi.cdef(_CDEF)

    def load(self, path: Path):
        lib = self._ffi.dlopen(str(path))
        return lib.repro_replay, lib.repro_dual, lib.repro_classify

    def pointer(self, arr):
        return self._ffi.cast("long long *", arr.ctypes.data)

    def pointer_array(self, arrs):
        if not arrs:
            return self._ffi.NULL
        return self._ffi.new("long long *[]",
                             [self.pointer(a) for a in arrs])

    @property
    def null(self):
        return self._ffi.NULL


class _CtypesBinding:
    """Stdlib fallback when cffi is unavailable: ``ctypes.CDLL``."""

    name = "ctypes"

    def __init__(self) -> None:
        import ctypes

        self._ctypes = ctypes
        self._pll = ctypes.POINTER(ctypes.c_longlong)
        rows = ctypes.POINTER(self._pll)
        self._argtypes = {
            "repro_replay": [self._pll] * 7 + [rows] * 2 + [self._pll] * 4,
            "repro_dual": [self._pll] * 5 + [rows] + [self._pll] * 4,
            "repro_classify": [self._pll] * 2 + [rows] + [self._pll] * 3,
        }

    def load(self, path: Path):
        lib = self._ctypes.CDLL(str(path))
        fns = []
        for name, argtypes in self._argtypes.items():
            fn = getattr(lib, name)
            fn.restype = self._ctypes.c_longlong
            fn.argtypes = argtypes
            fns.append(fn)
        return tuple(fns)

    def pointer(self, arr):
        return self._ctypes.cast(arr.ctypes.data, self._pll)

    def pointer_array(self, arrs):
        if not arrs:
            return None
        return (self._pll * len(arrs))(*[self.pointer(a) for a in arrs])

    @property
    def null(self):
        return None


_BINDING = None


def get_binding():
    """The (memoized) FFI binding: cffi preferred, ctypes fallback."""
    global _BINDING
    if _BINDING is None:
        try:
            _BINDING = _CffiBinding()
        except ImportError:  # pragma: no cover - cffi is in the image
            _BINDING = _CtypesBinding()
    return _BINDING


class LoadedKernel:
    """The dlopen'd kernel (replay, dual-issue and classify entries)
    plus provenance."""

    def __init__(self, family: str, path: Path,
                 compile_seconds: float, built: bool) -> None:
        #: The cache entry's name, ``kernel-<digest>``: one label per
        #: build, with no per-configuration meaning.
        self.family = family
        self.path = path
        #: Wall-clock compile time paid by *this* process (0.0 when
        #: the shared object came from the disk cache).
        self.compile_seconds = compile_seconds
        #: True when this process ran the compiler.
        self.built = built
        self._binding = get_binding()
        self._replay, self._dual, self._classify = self._binding.load(path)

    def _call(self, fn, args) -> int:
        # An array is passed by pointer, a list of arrays as an array
        # of pointers, and ``None`` as NULL.
        b = self._binding
        return int(fn(*[
            b.null if a is None else
            b.pointer_array(a) if isinstance(a, list) else b.pointer(a)
            for a in args
        ]))

    def invoke(self, *args) -> int:
        """Run ``repro_replay``; arguments in its C order."""
        return self._call(self._replay, args)

    def invoke_dual(self, *args) -> int:
        """Run ``repro_dual``; arguments in its C order."""
        return self._call(self._dual, args)

    def invoke_classify(self, *args) -> int:
        """Run ``repro_classify``; arguments in its C order."""
        return self._call(self._classify, args)


_KERNEL: Optional[LoadedKernel] = None
_BUILD_FAILURE: Optional[str] = None


def ensure_kernel(family: Optional[str] = None) -> LoadedKernel:
    """Load the kernel, building it at most once per process.

    ``family`` may be any :attr:`LoadedKernel.family` label: there is
    one kernel, so every label names it.  Raises
    :class:`KernelBuildError` when no compiler is available or the
    build failed; the failure is memoized so a broken toolchain is
    probed once, not once per cell.
    """
    global _KERNEL, _BUILD_FAILURE
    if _KERNEL is not None:
        return _KERNEL
    if _BUILD_FAILURE is not None:
        raise KernelBuildError(_BUILD_FAILURE)
    try:
        so_path, secs, built = compile_kernel_so()
        _KERNEL = LoadedKernel(so_path.stem, so_path, secs, built)
    except KernelBuildError as exc:
        _BUILD_FAILURE = str(exc)
        raise
    except OSError as exc:
        _BUILD_FAILURE = f"kernel load failed: {exc}"
        raise KernelBuildError(_BUILD_FAILURE) from exc
    return _KERNEL


def kernels_available() -> bool:
    """Cheap gate for the C entries and the prebuild: can kernels exist?"""
    return find_compiler() is not None


def loaded_kernels() -> Tuple[LoadedKernel, ...]:
    """The kernel, once this process has loaded it (reporting)."""
    return () if _KERNEL is None else (_KERNEL,)


# -- cache maintenance (python -m repro cache) ---------------------------------


def kernel_cache_stats() -> dict:
    """Count and size the on-disk kernel cache for ``cache stats``."""
    root = kernel_cache_dir()
    kernels = 0
    total_bytes = 0
    if root.is_dir():
        for entry in root.iterdir():
            if not entry.is_file():
                continue
            if entry.suffix == ".so":
                kernels += 1
            total_bytes += entry.stat().st_size
    return {
        "path": str(root),
        "kernels": kernels,
        "bytes": total_bytes,
        "compiler": find_compiler(),
        "binding": get_binding().name,
    }


def clear_kernel_cache() -> int:
    """Remove every cached kernel file; returns the count removed."""
    global _KERNEL
    root = kernel_cache_dir()
    removed = 0
    if root.is_dir():
        for entry in list(root.iterdir()):
            if entry.is_file():
                entry.unlink()
                removed += 1
        try:
            root.rmdir()
        except OSError:
            pass
    _KERNEL = None
    return removed


def gc_kernel_cache() -> int:
    """Remove every file but the current kernel's entry; returns the
    number of files removed.

    An entry is live only when its name carries the current digest:
    kernels of another source, flag set, schema or engine version,
    and orphaned or torn files, all go.
    """
    root = kernel_cache_dir()
    if not root.is_dir():
        return 0
    live = {path.name for path in _entry_paths(kernel_digest())}
    removed = 0
    for entry in list(root.iterdir()):
        if entry.is_file() and entry.name not in live:
            entry.unlink()
            removed += 1
    return removed
