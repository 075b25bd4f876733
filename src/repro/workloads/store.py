"""Binary mmap trace store: compiled access streams shared across sweeps.

Every sweep cell consumes the same immutable input — a workload's access
trace — yet before this module existed each cell either unpickled its
own truncated copy or rebuilt the whole workload from scratch inside the
worker.  Trace-driven prefetcher frameworks (Pythia's champsim traces,
Athena) make large sweeps tractable by compiling each workload **once**
into a binary trace file that every simulated configuration then maps;
this module is that layer for the repro tree.

Format (``*.rpt``, little-endian throughout)::

    header   magic ``b"RPTRACE\\0"`` · u32 STORE_VERSION · u32 meta length
             · u64 record count
    meta     canonical JSON: workload name, content fingerprint, the
             workloads-source fingerprint the file was compiled from
    records  ``record count`` fixed-size structs (RECORD_FORMAT)

Records are fixed-size (:data:`RECORD_SIZE` bytes) so a reader can seek
to any index without scanning; branch outcomes are bit-packed into a
single word (the builder never emits more than 64 per access) and the
full :class:`~repro.hints.SemanticHints` payload travels in dedicated
fields.  Decoding is lossless: :class:`TraceReader` yields records
field-for-field equal — hints, branch tuples, flags and all — to what
``TraceBuilder`` produced (``tests/workloads/test_store.py`` proves it
for every registry workload).

Store files are content-addressed under ``results/.cache/traces/`` by
``(STORE_VERSION, workloads-source fingerprint, workload name)``: edit
any workload generator (or ``hints.py``) and the old file simply stops
being referenced; ``gc`` removes unreferenced and corrupt files.  A
corrupt, truncated or version-skewed file raises
:class:`TraceStoreError` from the open/validate path — library callers
(the sweep engine, :meth:`TraceStore.ensure`) catch it and degrade to
rebuilding the trace, never to a crash; only the CLI turns it into a
nonzero exit.

The analysis rule ``PERF002`` pins a hash of :data:`RECORD_FIELDS` per
:data:`STORE_VERSION`: any layout change without a version bump fails
``repro lint``, so stale files can never be misread as current ones.
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.hints import NO_HINTS, RefForm, SemanticHints
from repro.workloads.serialize import trace_fingerprint
from repro.workloads.trace import MemoryAccess

if TYPE_CHECKING:
    from repro.workloads.suites import WorkloadSpec

log = logging.getLogger(__name__)

#: bump on ANY change to the record layout or header semantics; the
#: PERF002 analysis rule pins the layout hash per version
STORE_VERSION = 1

MAGIC = b"RPTRACE\x00"

#: the record layout, field by field.  Order and formats are part of the
#: on-disk contract: PERF002 hashes this tuple, so editing it without
#: bumping STORE_VERSION fails ``repro lint``.
RECORD_FIELDS = (
    ("addr", "Q"),  # demand address (u64)
    ("pc", "Q"),  # program counter (u64)
    ("reg_value", "q"),  # live register value (signed: keys may be <0)
    ("value", "q"),  # loaded data (signed: sentinel values may be <0)
    ("branch_bits", "Q"),  # branch outcomes, oldest at bit 0
    ("inst_gap", "I"),  # non-memory instructions since previous access
    ("type_id", "I"),  # SemanticHints.type_id
    ("link_offset", "I"),  # SemanticHints.link_offset
    ("branch_count", "H"),  # number of valid bits in branch_bits
    ("flags", "B"),  # bit0 is_load · bit1 depends_on_prev · bit2 has hints
    ("ref_form", "B"),  # SemanticHints.ref_form (RefForm int value)
)

RECORD_FORMAT = "<" + "".join(fmt for _, fmt in RECORD_FIELDS)
_RECORD_STRUCT = struct.Struct(RECORD_FORMAT)
RECORD_SIZE = _RECORD_STRUCT.size

_HEADER_STRUCT = struct.Struct("<8sIIQ")
HEADER_SIZE = _HEADER_STRUCT.size

_FLAG_IS_LOAD = 1
_FLAG_DEPENDS = 2
_FLAG_HINTED = 4

_U64_MAX = (1 << 64) - 1
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_U32_MAX = (1 << 32) - 1

#: default store location, beside the native kernel builds
DEFAULT_TRACE_DIR = Path("results") / ".cache" / "traces"


class TraceStoreError(Exception):
    """A store file cannot be written, read, or trusted."""

    #: the records a compile had built when its write failed, so a caller
    #: that ships them by value need not build them again
    trace: "list[MemoryAccess] | None" = None


def record_layout_hash(fields: Sequence[Sequence[str]] = RECORD_FIELDS) -> str:
    """Stable hash of the record layout (what PERF002 pins per version)."""
    canonical = json.dumps([list(f) for f in fields], separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# source fingerprint: which code a compiled trace depends on

#: everything a trace's content can depend on: the workload generators
#: and the hint records they attach.  sim/, prefetchers/ etc. are out on
#: purpose — simulator edits must not invalidate compiled traces.
TRACE_SOURCE_PREFIXES = ("workloads/",)
TRACE_SOURCE_FILES = ("hints.py",)

_source_fingerprint_cache: str | None = None


def workloads_fingerprint() -> str:
    """Hash of the trace-producing source files (cached per process)."""
    global _source_fingerprint_cache
    if _source_fingerprint_cache is None:
        root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel in TRACE_SOURCE_FILES or rel.startswith(TRACE_SOURCE_PREFIXES):
                digest.update(rel.encode("utf-8"))
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
        _source_fingerprint_cache = digest.hexdigest()
    return _source_fingerprint_cache


# ----------------------------------------------------------------------
# record codec


def _encode_record(access: MemoryAccess) -> bytes:
    branches = access.branches
    count = len(branches)
    if count > 64:
        raise TraceStoreError(
            f"access at pc {access.pc:#x} carries {count} branch outcomes; "
            "the record format holds at most 64"
        )
    bits = 0
    for i, taken in enumerate(branches):
        if taken:
            bits |= 1 << i
    hints = access.hints
    flags = 0
    if access.is_load:
        flags |= _FLAG_IS_LOAD
    if access.depends_on_prev:
        flags |= _FLAG_DEPENDS
    if hints is not NO_HINTS and hints != NO_HINTS:
        flags |= _FLAG_HINTED
    if not (
        0 <= access.addr <= _U64_MAX
        and 0 <= access.pc <= _U64_MAX
        and _I64_MIN <= access.reg_value <= _I64_MAX
        and _I64_MIN <= access.value <= _I64_MAX
        and 0 <= access.inst_gap <= _U32_MAX
        and 0 <= hints.type_id <= _U32_MAX
        and 0 <= hints.link_offset <= _U32_MAX
        and 0 <= int(hints.ref_form) <= 0xFF
    ):
        raise TraceStoreError(
            f"access at pc {access.pc:#x} has a field outside the record "
            "format's range"
        )
    return _RECORD_STRUCT.pack(
        access.addr,
        access.pc,
        access.reg_value,
        access.value,
        bits,
        access.inst_gap,
        hints.type_id,
        hints.link_offset,
        count,
        flags,
        int(hints.ref_form),
    )


def pack_records(accesses: Iterable[MemoryAccess]) -> bytes:
    """``accesses`` as a store file's record block: :data:`RECORD_SIZE`
    bytes each, what :func:`write_trace` writes after the header (the
    native kernel reads an access list in this form).  Raises
    :class:`TraceStoreError` for an access the format cannot hold."""
    return b"".join(map(_encode_record, accesses))


#: the branch tuples and hint records of a trace repeat heavily; interning
#: them makes decoded traces cheaper than built ones (shared immutables)
_EMPTY_BRANCHES: tuple[bool, ...] = ()


class _Interner:
    """Per-reader memo for branch tuples and hint records."""

    __slots__ = ("branches", "hints")

    def __init__(self) -> None:
        self.branches: dict[tuple[int, int], tuple[bool, ...]] = {}
        self.hints: dict[tuple[int, int, int], SemanticHints] = {}

    def branch_tuple(self, count: int, bits: int) -> tuple[bool, ...]:
        if not count:
            return _EMPTY_BRANCHES
        key = (count, bits)
        out = self.branches.get(key)
        if out is None:
            out = tuple(bool(bits >> i & 1) for i in range(count))
            self.branches[key] = out
        return out

    def hint_record(
        self, type_id: int, link_offset: int, ref_form: int
    ) -> SemanticHints:
        key = (type_id, link_offset, ref_form)
        out = self.hints.get(key)
        if out is None:
            out = SemanticHints(
                type_id=type_id,
                link_offset=link_offset,
                ref_form=RefForm(ref_form),
            )
            self.hints[key] = out
        return out


def _decode_records(
    buffer: bytes | mmap.mmap,
    offset: int,
    count: int,
    interner: _Interner,
) -> Iterator[MemoryAccess]:
    end = offset + count * RECORD_SIZE
    branch_tuple = interner.branch_tuple
    hint_record = interner.hint_record
    # positional construction in dataclass field order — the decode loop
    # runs once per record, so kwarg plumbing is measurable overhead
    for (
        addr,
        pc,
        reg_value,
        value,
        branch_bits,
        inst_gap,
        type_id,
        link_offset,
        branch_count,
        flags,
        ref_form,
    ) in _RECORD_STRUCT.iter_unpack(memoryview(buffer)[offset:end]):
        yield MemoryAccess(
            addr,
            pc,
            bool(flags & _FLAG_IS_LOAD),
            inst_gap,
            bool(flags & _FLAG_DEPENDS),
            branch_tuple(branch_count, branch_bits) if branch_count else _EMPTY_BRANCHES,
            reg_value,
            value,
            (
                hint_record(type_id, link_offset, ref_form)
                if flags & _FLAG_HINTED
                else NO_HINTS
            ),
        )


# ----------------------------------------------------------------------
# file writer / reader


@dataclass(frozen=True)
class TraceMeta:
    """Header metadata of one store file (cheap to read: no records)."""

    path: Path
    workload: str
    fingerprint: str  # content hash of the access stream (cache-key fp)
    source: str  # workloads_fingerprint() at compile time
    records: int
    version: int = STORE_VERSION

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + len(self._meta_json()) + self.records * RECORD_SIZE

    def _meta_json(self) -> bytes:
        payload = {
            "workload": self.workload,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "records": self.records,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )


def write_trace(
    path: str | Path,
    trace: Sequence[MemoryAccess],
    *,
    workload: str,
    fingerprint: str | None = None,
    source: str | None = None,
) -> TraceMeta:
    """Compile ``trace`` into a store file (atomic write-temp-then-rename).

    ``fingerprint`` defaults to :func:`trace_fingerprint` of the stream —
    the same content hash sweep cells are keyed on, so a store-supplied
    trace produces identical cell keys to an in-memory one.
    """
    path = Path(path)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        # the directory and the file open before the trace is hashed: a
        # store that cannot be written fails without paying for the hash
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fp:
            meta = TraceMeta(
                path=path,
                workload=workload,
                fingerprint=fingerprint or trace_fingerprint(trace),
                source=source if source is not None else workloads_fingerprint(),
                records=len(trace),
            )
            meta_json = meta._meta_json()
            header = _HEADER_STRUCT.pack(
                MAGIC, STORE_VERSION, len(meta_json), len(trace)
            )
            fp.write(header)
            fp.write(meta_json)
            fp.write(pack_records(trace))
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError as cleanup_exc:
            log.debug("trace store: temp file %s not removed: %s", tmp, cleanup_exc)
        if isinstance(exc, OSError):
            raise TraceStoreError(f"cannot write trace store {path}: {exc}") from exc
        raise
    return meta


def _read_header(fp, path: Path) -> tuple[TraceMeta, int]:
    """Validated (meta, payload offset); raises :class:`TraceStoreError`."""
    raw = fp.read(HEADER_SIZE)
    if len(raw) != HEADER_SIZE:
        raise TraceStoreError(f"{path}: truncated header")
    magic, version, meta_len, count = _HEADER_STRUCT.unpack(raw)
    if magic != MAGIC:
        raise TraceStoreError(f"{path}: not a repro trace store file")
    if version != STORE_VERSION:
        raise TraceStoreError(
            f"{path}: store version {version} (this build reads "
            f"version {STORE_VERSION})"
        )
    meta_raw = fp.read(meta_len)
    if len(meta_raw) != meta_len:
        raise TraceStoreError(f"{path}: truncated metadata block")
    try:
        meta = json.loads(meta_raw)
        workload = meta["workload"]
        fingerprint = meta["fingerprint"]
        source = meta["source"]
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceStoreError(f"{path}: malformed metadata block: {exc}") from exc
    return (
        TraceMeta(
            path=path,
            workload=workload,
            fingerprint=fingerprint,
            source=source,
            records=count,
            version=version,
        ),
        HEADER_SIZE + meta_len,
    )


def read_meta(path: str | Path) -> TraceMeta:
    """Header metadata only — validates magic/version/size, skips records."""
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fp:
            meta, offset = _read_header(fp, path)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise TraceStoreError(f"{path}: unreadable: {exc}") from exc
    expected = offset + meta.records * RECORD_SIZE
    if size != expected:
        raise TraceStoreError(
            f"{path}: size {size} != expected {expected} "
            f"({meta.records} records of {RECORD_SIZE} bytes) — truncated "
            "or corrupt"
        )
    return meta


class TraceReader(Sequence[MemoryAccess]):
    """mmap-backed lazy view of one store file.

    Sequence protocol over lazily decoded records: ``len``, indexing,
    slicing (returns a list) and iteration, so a reader can stand in for
    a workload's trace list anywhere the simulator consumes one.  Bytes
    are paged in by the OS on first touch; nothing is decoded until
    accessed.  Use :meth:`materialize` when a run will touch every
    record anyway — one pass of batch decoding beats per-index calls.
    """

    def __init__(self, path: str | Path):
        path = Path(path)
        self.meta = read_meta(path)  # validates before we map
        self._offset = self.meta.size_bytes - self.meta.records * RECORD_SIZE
        try:
            with open(path, "rb") as fp:
                if self.meta.records:
                    self._map: mmap.mmap | bytes | None = mmap.mmap(
                        fp.fileno(), 0, access=mmap.ACCESS_READ
                    )
                else:
                    self._map = b""
        except (OSError, ValueError) as exc:
            raise TraceStoreError(f"{path}: cannot map: {exc}") from exc
        self._interner = _Interner()

    def _records(self) -> mmap.mmap | bytes:
        """The mapped file; a closed reader has nothing to read."""
        if self._map is None:
            raise ValueError(f"{self.meta.path}: the trace reader is closed")
        return self._map

    # -- Sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return self.meta.records

    def __iter__(self) -> Iterator[MemoryAccess]:
        return _decode_records(
            self._records(), self._offset, self.meta.records, self._interner
        )

    def __getitem__(self, index):  # type: ignore[override]
        records = self._records()
        if isinstance(index, slice):
            start, stop, step = index.indices(self.meta.records)
            if step == 1:
                count = max(0, stop - start)
                return list(
                    _decode_records(
                        records,
                        self._offset + start * RECORD_SIZE,
                        count,
                        self._interner,
                    )
                )
            return [self[i] for i in range(start, stop, step)]
        if index < 0:
            index += self.meta.records
        if not 0 <= index < self.meta.records:
            raise IndexError(index)
        return next(
            _decode_records(
                records, self._offset + index * RECORD_SIZE, 1, self._interner
            )
        )

    # ------------------------------------------------------------------

    def materialize(self, limit: int | None = None) -> list[MemoryAccess]:
        """Decode the first ``limit`` records (all when ``None``) eagerly."""
        count = self.meta.records if limit is None else min(limit, self.meta.records)
        return list(
            _decode_records(self._records(), self._offset, count, self._interner)
        )

    def record_block(self, limit: int | None = None) -> memoryview:
        """The first ``limit`` records (all when ``None``) as a read-only
        view of the mapped file: :data:`RECORD_SIZE` bytes each, laid out
        as :data:`RECORD_FIELDS`, nothing decoded or copied.  The native
        kernel reads them in place.  Release the view before
        :meth:`close`: a mapped file cannot close under a live view.
        """
        count = self.meta.records if limit is None else min(limit, self.meta.records)
        end = self._offset + count * RECORD_SIZE
        return memoryview(self._records())[self._offset : end]

    def close(self) -> None:
        """Unmap the file.  Every later read raises :class:`ValueError`
        (``len`` still counts the records); closing again does nothing."""
        if isinstance(self._map, mmap.mmap):
            self._map.close()
        self._map = None


def read_trace(
    path: str | Path,
    *,
    limit: int | None = None,
    expect_fingerprint: str | None = None,
) -> list[MemoryAccess]:
    """Decode a store file into a list (the worker-side entry point).

    ``expect_fingerprint`` guards a file swapped between job submission
    and execution: a mismatch raises, and the caller rebuilds instead of
    silently simulating the wrong trace.
    """
    reader = TraceReader(path)
    try:
        if (
            expect_fingerprint is not None
            and reader.meta.fingerprint != expect_fingerprint
        ):
            raise TraceStoreError(
                f"{path}: fingerprint {reader.meta.fingerprint[:12]}… does not "
                f"match the expected {expect_fingerprint[:12]}…"
            )
        return reader.materialize(limit)
    finally:
        reader.close()


# ----------------------------------------------------------------------
# the content-addressed store directory


@dataclass(frozen=True)
class StoredTrace:
    """What a sweep job ships instead of a pickled trace."""

    path: str
    fingerprint: str
    records: int


class TraceStore:
    """Directory of compiled traces, content-addressed by source + name."""

    def __init__(self, root: str | Path = DEFAULT_TRACE_DIR):
        self.root = Path(root)
        #: corrupt/stale files this instance healed by recompiling;
        #: sweeps diff it to roll degrade events into their summary
        self.heals = 0

    def path_for(self, workload: str) -> Path:
        digest = hashlib.sha256(
            json.dumps(
                [STORE_VERSION, workloads_fingerprint(), workload],
                separators=(",", ":"),
            ).encode("utf-8")
        ).hexdigest()
        safe = workload.replace("/", "_")
        return self.root / f"{safe}-{digest[:16]}.rpt"

    # ------------------------------------------------------------------

    def _current_or_compiled(
        self, workload: str, build: "WorkloadSpec | None", force: bool
    ) -> tuple[TraceMeta, list[MemoryAccess] | None]:
        """``(meta, None)`` for a valid file, else ``(meta, trace)`` once
        this call has compiled ``workload`` into the store.

        A file that cannot be read is replaced, and counts as a heal
        only once its replacement is written: a store that cannot be
        written raises :class:`TraceStoreError` and heals nothing.
        """
        path = self.path_for(workload)
        unreadable = False
        if not force:
            try:
                return read_meta(path), None
            except FileNotFoundError:
                pass  # cold miss: expected, compiled below
            except TraceStoreError as exc:
                unreadable = True
                log.warning("trace store: %s; compiling %s", exc, workload)
        if build is None:
            from repro.workloads.suites import get_workload

            build = get_workload(workload)
        trace = build.build().trace()
        try:
            meta = write_trace(path, trace, workload=workload)
        except TraceStoreError as exc:
            exc.trace = trace
            raise
        if unreadable:
            self.heals += 1
        return meta, trace

    def ensure(
        self, workload: str, *, build: "WorkloadSpec | None" = None
    ) -> tuple[StoredTrace, list[MemoryAccess] | None]:
        """The store file for ``workload``, compiling it on a miss.

        Returns ``(ref, trace_or_None)``: the trace list comes back
        non-``None`` exactly when this call had to build it, so callers
        can reuse the in-memory copy instead of re-decoding the file
        they just wrote.  Corrupt or stale files are recompiled in
        place; an unwritable store directory raises
        :class:`TraceStoreError` (callers ship the records by value).
        """
        meta, trace = self._current_or_compiled(workload, build, force=False)
        ref = StoredTrace(
            path=str(meta.path), fingerprint=meta.fingerprint, records=meta.records
        )
        return ref, trace

    def compile(
        self, workload: str, *, force: bool = False
    ) -> tuple[TraceMeta, bool]:
        """Compile one registry workload; ``(meta, compiled-this-call?)``."""
        meta, trace = self._current_or_compiled(workload, None, force)
        return meta, trace is not None

    # ------------------------------------------------------------------

    def entries(self) -> list[tuple[Path, TraceMeta | None, str]]:
        """Every ``*.rpt`` in the store: (path, meta-or-None, status).

        Status is ``"ok"`` for a valid current-generation file,
        ``"stale"`` for a valid file no current workload addresses
        (old source/version generations), and an error string for
        corrupt files.
        """
        from repro.workloads.suites import all_workloads

        current = {self.path_for(spec.name) for spec in all_workloads()}
        out: list[tuple[Path, TraceMeta | None, str]] = []
        for path in sorted(self.root.glob("*.rpt")):
            try:
                meta = read_meta(path)
            except (TraceStoreError, FileNotFoundError, OSError) as exc:
                log.warning("trace store: unreadable entry %s: %s", path, exc)
                out.append((path, None, str(exc)))
                continue
            status = "ok" if path in current else "stale"
            out.append((path, meta, status))
        return out

    def gc(self, *, dry_run: bool = False) -> tuple[int, list[Path]]:
        """Drop stale and corrupt files; ``(kept, removed paths)``.

        Current-generation files are kept; anything content-addressed by
        an older source fingerprint or store version — plus anything
        unreadable — is removed.  Temp files from dead writers go too.
        """
        kept = 0
        removed: list[Path] = []
        for path, meta, status in self.entries():
            if status == "ok":
                kept += 1
                continue
            removed.append(path)
            if not dry_run:
                try:
                    path.unlink(missing_ok=True)
                except OSError as exc:
                    log.warning("trace store: gc cannot remove %s: %s", path, exc)
        for tmp in sorted(self.root.glob("*.tmp.*")):
            removed.append(tmp)
            if not dry_run:
                try:
                    tmp.unlink(missing_ok=True)
                except OSError as exc:
                    log.warning("trace store: gc cannot remove %s: %s", tmp, exc)
        return kept, removed


__all__ = [
    "DEFAULT_TRACE_DIR",
    "RECORD_FIELDS",
    "RECORD_FORMAT",
    "RECORD_SIZE",
    "STORE_VERSION",
    "StoredTrace",
    "TraceMeta",
    "TraceReader",
    "TraceStore",
    "TraceStoreError",
    "pack_records",
    "read_meta",
    "read_trace",
    "record_layout_hash",
    "workloads_fingerprint",
    "write_trace",
]
