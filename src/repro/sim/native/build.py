"""Compile-and-cache machinery for the native kernel.

The kernel compiles at first use via cffi's API mode (a real C extension,
not dlopen-ffi), cached under ``results/.cache/native/`` keyed by a hash
of the C source and of every artifact's compile flags — editing
:mod:`repro.sim.native._csrc` or a flag in :data:`VARIANTS` invalidates
the artifacts automatically.  Parallel sweep workers race benignly: each
compiles into a private scratch directory and installs the extension with
an atomic rename, so the winner's artifact is complete and every loser's
is byte-identical.

The batch driver prefers an OpenMP build (``-fopenmp``) so whole shards
fan across a thread pool inside one GIL-released call; when the
toolchain has no OpenMP — or ``REPRO_NATIVE_NO_OPENMP=1`` forces it —
the same source compiles serially (the ``#pragma`` is ignored and the
``#else`` loop runs), bit-identical by construction.  The two modes use
distinct artifact names (``_omp`` suffix) so both stay cached side by
side, and ``kernel_openmp()`` reports which one loaded.

A third artifact, ``_timing``, compiles the same source with
``RP_UNIT_TIMING`` defined: per-unit timers inside the per-access loop
(see ``docs/native_kernel.md``).  Only :func:`unit_timing` loads it, for
``repro profile --native``; every other caller gets the untimed builds.

Every failure mode (no cffi, no numpy, no C toolchain, a compile error)
logs once and degrades to ``None``; callers fall back to the interpreted
path, which is the reference oracle anyway.
"""

from __future__ import annotations

import hashlib
import importlib.util
import logging
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

from repro.sim.native import _csrc

log = logging.getLogger(__name__)

#: compiled-extension cache, next to the trace store's cache tree
DEFAULT_BUILD_DIR = Path("results") / ".cache" / "native"

#: kill-switch: set to "1" to skip the OpenMP build and force the serial
#: batch loop (CI's no-OpenMP leg proves it bit-identical)
NO_OPENMP_ENV = "REPRO_NATIVE_NO_OPENMP"

#: compile flags every artifact is built with
BASE_COMPILE_ARGS = ("-O2",)

#: the artifacts one source builds: name suffix -> (extra compile args,
#: link args).  The serial build has no suffix, ``_omp`` is the OpenMP
#: batch driver and ``_timing`` the serial unit-timing build.
VARIANTS = {
    "": ((), ()),
    "_omp": (("-fopenmp",), ("-fopenmp",)),
    "_timing": (("-DRP_UNIT_TIMING",), ()),
}

#: memoized (module with .ffi/.lib) — per process; workers re-import and
#: re-load the cached artifact rather than sharing this handle
_kernel = None
_failed = False

#: the unit-timing build, memoized the same way; ``_timing_active`` makes
#: :func:`kernel_or_none` answer it inside a :func:`unit_timing` block
_timing_kernel = None
_timing_failed = False
_timing_active = False


def source_digest() -> str:
    """Content hash of the kernel's cdef + C source + every artifact's
    flags (cache key): a flag change renames all three artifacts, so a
    stale build is never loaded."""
    text = _csrc.CDEF + _csrc.SOURCE + repr((BASE_COMPILE_ARGS, VARIANTS))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def openmp_requested() -> bool:
    """Whether this process may try the OpenMP build at all."""
    return os.environ.get(NO_OPENMP_ENV, "") != "1"


def artifact_prefix() -> str:
    """Artifact-name prefix shared by every build variant of this source."""
    return f"_repro_native_{source_digest()}"


def module_name(variant: str = "") -> str:
    """The artifact module name of one :data:`VARIANTS` entry."""
    return artifact_prefix() + variant


def kernel_openmp() -> bool:
    """True when the loaded kernel's batch driver is the OpenMP build."""
    kernel = kernel_or_none()
    return bool(kernel) and bool(kernel.lib.rp_batch_openmp())


def _load_extension(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load native kernel from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _existing_artifact(build_dir: Path, name: Path | str) -> Path | None:
    # the _omp glob must not swallow the serial artifact (or vice versa):
    # the ABI tag follows a "." in the cffi filename, so anchor on it
    candidates = sorted(build_dir.glob(f"{name}.*.so")) or sorted(
        build_dir.glob(f"{name}.so")
    )
    return candidates[0] if candidates else None


def _compile_extension(build_dir: Path, name: str, *, variant: str) -> Path:
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(_csrc.CDEF)
    extra_compile, link_args = VARIANTS[variant]
    ffi.set_source(
        name,
        _csrc.SOURCE,
        extra_compile_args=[*BASE_COMPILE_ARGS, *extra_compile],
        extra_link_args=list(link_args),
    )
    scratch = tempfile.mkdtemp(prefix="build-", dir=build_dir)
    try:
        built = Path(ffi.compile(tmpdir=scratch))
        target = build_dir / built.name
        os.replace(built, target)  # atomic; racing builders agree on bytes
        return target
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def kernel_or_none(build_dir: Path | None = None):
    """The compiled kernel module (``.ffi``/``.lib``), or None.

    Memoizes both success and failure: a process that cannot build the
    kernel logs the reason once and answers None from then on.  The
    OpenMP build is tried first (unless vetoed by the environment); a
    toolchain without ``-fopenmp`` support falls through to the serial
    build transparently.  Inside a :func:`unit_timing` block the answer
    is the unit-timing build instead.
    """
    global _kernel, _failed
    if _timing_active:
        return _timing_kernel
    if _kernel is not None:
        return _kernel
    if _failed:
        return None
    try:
        import cffi  # noqa: F401  (compile-time dependency)
        import numpy  # noqa: F401  (decode-phase dependency; gate together)
    except ImportError as exc:
        _failed = True
        log.warning("native kernel unavailable (%s); using the interpreted path", exc)
        return None
    directory = Path(build_dir) if build_dir is not None else DEFAULT_BUILD_DIR
    modes = [True, False] if openmp_requested() else [False]
    last_exc: Exception | None = None
    for openmp in modes:
        try:
            _kernel = _load_variant(directory, "_omp" if openmp else "")
            return _kernel
        except Exception as exc:
            last_exc = exc
            if openmp:
                log.info(
                    "OpenMP kernel build failed (%s); trying the serial build",
                    exc,
                )
    _failed = True
    log.warning(
        "native kernel build failed (%s); using the interpreted path", last_exc
    )
    return None


def _load_variant(directory: Path, variant: str):
    name = module_name(variant)
    directory.mkdir(parents=True, exist_ok=True)
    artifact = _existing_artifact(directory, name)
    if artifact is None:
        artifact = _compile_extension(directory, name, variant=variant)
    return _load_extension(artifact, name)


@contextmanager
def unit_timing(build_dir: Path | None = None):
    """Within the block, :func:`kernel_or_none` answers the unit-timing
    build (``None`` when it cannot be built), and the block yields it.

    Native handles made inside the block belong to that build and must
    not outlive it: the timed kernel's state layout differs from the
    default one's.  ``repro profile --native`` runs its one simulation
    here; nothing else loads the timing build.
    """
    global _timing_kernel, _timing_failed, _timing_active
    if _timing_kernel is None and not _timing_failed:
        if kernel_or_none(build_dir) is not None:  # gates cffi/numpy once
            directory = (
                Path(build_dir) if build_dir is not None else DEFAULT_BUILD_DIR
            )
            try:
                _timing_kernel = _load_variant(directory, "_timing")
            except Exception as exc:
                _timing_failed = True
                log.warning("unit-timing kernel build failed (%s)", exc)
        else:
            _timing_failed = True
    _timing_active = True
    try:
        yield _timing_kernel
    finally:
        _timing_active = False


def gc_build_cache(
    build_dir: Path | None = None, *, dry_run: bool = False
) -> tuple[int, list[Path]]:
    """Drop stale native-kernel artifacts; ``(kept, removed)`` back.

    Artifacts for the *current* C source and flags (every variant — the
    serial, ``_omp`` and ``_timing`` names share :func:`artifact_prefix`)
    are kept;
    extensions built from superseded sources and abandoned ``build-*``
    scratch directories (a builder that died mid-compile) are removed.
    ``dry_run`` reports without deleting — the same contract as
    :meth:`repro.workloads.store.TraceStore.gc`, and the ``repro trace
    gc`` CLI runs both back to back.
    """
    directory = Path(build_dir) if build_dir is not None else DEFAULT_BUILD_DIR
    if not directory.is_dir():
        return 0, []
    keep_prefix = artifact_prefix()
    kept = 0
    removed: list[Path] = []
    for path in sorted(directory.iterdir()):
        if path.is_dir():
            if path.name.startswith("build-"):
                removed.append(path)
                if not dry_run:
                    shutil.rmtree(path, ignore_errors=True)
            else:
                kept += 1
            continue
        if path.name.startswith(keep_prefix):
            kept += 1
            continue
        removed.append(path)
        if not dry_run:
            path.unlink(missing_ok=True)
    return kept, removed


def reset_for_tests() -> None:
    """Clear the per-process memo (tests exercising failure paths)."""
    global _kernel, _failed, _timing_kernel, _timing_failed
    _kernel = None
    _failed = False
    _timing_kernel = None
    _timing_failed = False
