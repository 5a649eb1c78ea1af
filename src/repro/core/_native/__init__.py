"""Build-and-load layer for the native kernel.

``kernel.c`` (shipped next to this module) holds two things: the k-ary
SplayNet serve kernel behind the ``native`` engine, and the forward
passes of the optimal-tree DPs (``repro_dp_general`` for Theorem 2,
``repro_dp_uniform`` for Theorem 4).  It has no dependency on Python.h,
so it compiles with any C toolchain: this module builds it into a shared
library with ``cc -O3 -shared -fPIC``, caches the result under a
content-addressed name, and loads it through :mod:`ctypes`.  Everything is
best-effort — any failure (no compiler, read-only filesystem, a kernel
source that does not compile, ``REPRO_NATIVE=0``) leaves the process in
the *unavailable* state, recorded in :func:`build_error`; the engine
layer then degrades to the pure-Python flat backend (see
:func:`repro.core.engine.resolve_engine`) and the DPs to their NumPy
passes (see :mod:`repro.optimal.general` and :mod:`repro.optimal.uniform`).

Environment knobs:

``REPRO_NATIVE``
    ``0``/``off``/``false`` disables the kernel entirely (the supported
    way to exercise the no-toolchain fallback path on a machine that has
    a compiler).
``REPRO_NATIVE_CACHE``
    Directory for compiled shared objects (default
    ``~/.cache/repro/native``, falling back to the system temp dir).
``CC``
    Preferred compiler (default: first of ``cc``, ``gcc``, ``clang`` on
    ``PATH``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

from repro.errors import FaultInjected
from repro.reliability.faults import fire_fault

__all__ = [
    "MAX_NATIVE_K",
    "available",
    "build_error",
    "kernel_source_path",
    "load_kernel",
]

#: Largest arity the kernel's stack scratch supports (mirror of
#: ``RK_MAX_K`` in kernel.c and :data:`repro.core.keyspace.MAX_K`).
MAX_NATIVE_K = 40

#: Expected ``repro_kernel_abi()`` value; stale cached shared objects that
#: report a different version are rebuilt.  Version 2 added the
#: resident-tree handle API, version 3 the DP forward passes, version 4
#: the identifier range check inside ``repro_tree_serve_batch``.
_ABI_VERSION = 4

_COMPILERS = ("cc", "gcc", "clang")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-fvisibility=default")

_kernel: Optional[ctypes.CDLL] = None
_error: Optional[str] = None
_tried = False


def kernel_source_path() -> Path:
    """Path of the shipped C source (packaged next to this module)."""
    return Path(__file__).resolve().parent / "kernel.c"


def _disabled_by_env() -> bool:
    return os.environ.get("REPRO_NATIVE", "").strip().lower() in (
        "0",
        "off",
        "false",
        "no",
    )


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    try:
        return Path.home() / ".cache" / "repro" / "native"
    except RuntimeError:  # pragma: no cover - no resolvable home
        return Path(tempfile.gettempdir()) / "repro-native"


def _find_compiler() -> Optional[str]:
    candidates = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates.extend(_COMPILERS)
    for candidate in candidates:
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _so_path(source: bytes, compiler: str) -> Path:
    """Content-addressed cache location for the compiled kernel."""
    tag = hashlib.sha256()
    tag.update(source)
    tag.update(platform.machine().encode())
    tag.update(sys.platform.encode())
    tag.update(Path(compiler).name.encode())
    tag.update(str(_ABI_VERSION).encode())
    suffix = ".dylib" if sys.platform == "darwin" else ".so"
    return _cache_dir() / f"repro_kernel_{tag.hexdigest()[:16]}{suffix}"


def _compile(compiler: str, src: Path, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    # Compile to a private temp name, then publish atomically so
    # concurrent processes never load a half-written library.
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    cmd = [compiler, *_CFLAGS, "-o", str(tmp), str(src)]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=120, check=False
    )
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        detail = (proc.stderr or proc.stdout or "").strip()
        raise RuntimeError(
            f"{' '.join(cmd)} failed with code {proc.returncode}: {detail}"
        )
    os.replace(tmp, out)


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_kernel_abi.restype = ctypes.c_int64
    lib.repro_kernel_abi.argtypes = ()
    abi = int(lib.repro_kernel_abi())
    if abi != _ABI_VERSION:
        raise RuntimeError(
            f"kernel ABI mismatch: compiled {abi}, expected {_ABI_VERSION}"
        )
    # -- resident-tree handle API (ABI v2) ---------------------------------
    fn = lib.repro_tree_create
    fn.restype = ctypes.c_void_p
    fn.argtypes = (ctypes.c_int64, ctypes.c_int64)  # n, k
    fn = lib.repro_tree_load
    fn.restype = None
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_int64,  # root
        ctypes.c_void_p,  # parent
        ctypes.c_void_p,  # pslot
        ctypes.c_void_p,  # children
        ctypes.c_void_p,  # routing
    )
    fn = lib.repro_tree_sync_out
    fn.restype = None
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_void_p,  # root_out
        ctypes.c_void_p,  # parent
        ctypes.c_void_p,  # pslot
        ctypes.c_void_p,  # children
        ctypes.c_void_p,  # routing
    )
    int64_p = ctypes.POINTER(ctypes.c_int64)
    fn = lib.repro_tree_serve_batch
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        int64_p,  # sources
        int64_p,  # targets
        ctypes.c_int64,  # m
        ctypes.c_int64,  # policy
        int64_p,  # routing_series (nullable)
        int64_p,  # rotation_series (nullable)
        ctypes.c_void_p,  # totals
    )
    fn = lib.repro_tree_serve_one
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_int64,  # u
        ctypes.c_int64,  # v
        ctypes.c_int64,  # policy
        ctypes.c_void_p,  # totals
    )
    fn = lib.repro_tree_destroy
    fn.restype = None
    fn.argtypes = (ctypes.c_void_p,)
    # -- optimal-tree DP forward passes (ABI v3) ---------------------------
    fn = lib.repro_dp_general
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # b: (k + 1, n + 1, n + 1) length-major table
        ctypes.c_void_p,  # w: (n + 1, n + 1) boundary-crossing matrix
        ctypes.c_int64,  # n
        ctypes.c_int64,  # k
        ctypes.c_int64,  # inf sentinel
    )
    fn = lib.repro_dp_uniform
    fn.restype = None
    fn.argtypes = (
        ctypes.c_void_p,  # t: (n + 1,) single-tree costs
        ctypes.c_void_p,  # b: (k + 1, n + 1) forest costs
        ctypes.c_void_p,  # w: (n + 1,) boundary crossing
        ctypes.c_int64,  # n
        ctypes.c_int64,  # k
        ctypes.c_int64,  # inf sentinel
    )
    return lib


def _load() -> ctypes.CDLL:
    if _disabled_by_env():
        raise RuntimeError("disabled by REPRO_NATIVE=0")
    src = kernel_source_path()
    if not src.is_file():
        raise RuntimeError(f"kernel source missing: {src}")
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError(
            "no C compiler found (tried $CC, cc, gcc, clang)"
        )
    source = src.read_bytes()
    out = _so_path(source, compiler)
    # A zero-size cache entry (e.g. disk-full or a crash between create
    # and publish on a filesystem without atomic replace) is not a
    # library: treat it as absent rather than letting CDLL choke on it.
    if not out.is_file() or out.stat().st_size == 0:
        _compile(compiler, src, out)
    fault = fire_fault("native.load", context=str(out))
    if fault is not None:
        if fault.mode == "corrupt":
            # Smash the cached artifact so the load below exercises the
            # rebuild-from-scratch recovery path.
            out.write_bytes(b"\x7fNOT-AN-ELF" + os.urandom(32))
        else:
            raise FaultInjected(
                f"injected kernel load failure: {fault.detail or fault.point}"
            )
    try:
        return _configure(ctypes.CDLL(str(out)))
    except Exception:
        # A stale or corrupt cache entry: rebuild once from scratch.
        out.unlink(missing_ok=True)
        _compile(compiler, src, out)
        return _configure(ctypes.CDLL(str(out)))


def load_kernel() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, or ``None`` when unavailable.

    The first call does the work (compile if needed, load, ABI check);
    the outcome — library or failure reason — is cached for the process.
    """
    global _kernel, _error, _tried
    if not _tried:
        _tried = True
        try:
            _kernel = _load()
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            _kernel = None
            _error = f"{type(exc).__name__}: {exc}"
    return _kernel


def available() -> bool:
    """Whether the compiled kernel can be used in this process."""
    return load_kernel() is not None


def build_error() -> Optional[str]:
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    load_kernel()
    return _error


def _reset_for_tests() -> None:
    """Forget the cached load outcome (so tests can flip REPRO_NATIVE)."""
    global _kernel, _error, _tried
    _kernel = None
    _error = None
    _tried = False
