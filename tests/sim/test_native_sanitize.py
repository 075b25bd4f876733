"""The batch kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

The test writes ``_csrc.SOURCE`` and a small C driver to a scratch
directory and compiles them twice: with the default build's flags, and
with ``-fsanitize=address,undefined -fno-sanitize-recover=all`` on top.
The driver reads shards from a file and runs each through
``rp_run_batch``: trace-store records packed by the store's encoder, and
rows built by :class:`~repro.sim.native.adapter.KernelRows`.  The shards
cover the paper's default config on many seeds, fuzz-drawn context
configs, one shard mixing capture geometries (granularities, delta
bounds, initial attributes, more than 64 sample depths) and table
families whose sizes are not powers of two, and warmup.  The sanitized
driver must exit cleanly, and every output block must equal the default
build's byte for byte.  Skipped without gcc or its sanitizer runtimes.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import struct
import subprocess
from array import array
from pathlib import Path

import pytest

from repro.core.attributes import Attribute
from repro.core.config import ContextPrefetcherConfig
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.native import _csrc
from repro.sim.native.adapter import BATCH_HIST_SLOTS, _sim_values, context_rows
from repro.sim.native.build import BASE_COMPILE_ARGS
from repro.workloads.store import pack_records
from repro.workloads.suites import get_workload
from tests.sim.test_native_fuzz import _fuzz_context, _fuzz_odd_table, _fuzz_trace

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")

#: reads shards until the input ends; per shard, six int64s (cells,
#: records, start index, warmup, histogram slots, threads), then each
#: array as an int64 count and its items; writes every output array
DRIVER = r"""
#include <stdio.h>

static void *take(FILE *f, size_t width) {
    int64_t n;
    if (fread(&n, sizeof n, 1, f) != 1) exit(3);
    void *p = malloc((size_t)n * width + 1);
    if (!p || (n && fread(p, width, (size_t)n, f) != (size_t)n)) exit(3);
    return p;
}

static void put(FILE *f, const void *p, size_t width, int64_t n) {
    if (fwrite(p, width, (size_t)n, f) != (size_t)n) exit(4);
}

int main(int argc, char **argv) {
    if (argc != 3) return 2;
    FILE *in = fopen(argv[1], "rb");
    FILE *out = fopen(argv[2], "wb");
    if (!in || !out) return 2;
    int64_t h[6];
    while (fread(h, sizeof h[0], 6, in) == 6) {
        int64_t ncells = h[0], slots = h[4];
        int32_t *rows = take(in, 4), *seeds = take(in, 4), *kinds = take(in, 4);
        int64_t *cfg_at = take(in, 8), *cfgs = take(in, 8), *dcfg_at = take(in, 8);
        double *dcfgs = take(in, 8);
        int64_t *key_at = take(in, 8);
        uint32_t *keys = take(in, 4);
        int64_t *hier = take(in, 8), *core = take(in, 8);
        uint8_t *recs = take(in, 1);
        int64_t *outs = calloc((size_t)(ncells * RP_BATCH_OUT_SLOTS), 8);
        int32_t *rcs = calloc((size_t)ncells, 4);
        double *acc = calloc((size_t)ncells, 8);
        int64_t *lens = calloc((size_t)ncells, 8);
        int64_t *depths = calloc((size_t)(ncells * slots), 8);
        int64_t *counts = calloc((size_t)(ncells * slots), 8);
        if (!outs || !rcs || !acc || !lens || !depths || !counts) return 5;
        rp_run_batch(ncells, rows, seeds, kinds, cfg_at, cfgs, dcfg_at, dcfgs,
                     key_at, keys, hier, core, h[1], h[2], h[3], recs, outs,
                     rcs, acc, lens, depths, counts, slots, (int)h[5]);
        put(out, outs, 8, ncells * RP_BATCH_OUT_SLOTS);
        put(out, rcs, 4, ncells);
        put(out, acc, 8, ncells);
        put(out, lens, 8, ncells);
        put(out, depths, 8, ncells * slots);
        put(out, counts, 8, ncells * slots);
        free(rows); free(seeds); free(kinds); free(cfg_at); free(cfgs);
        free(dcfg_at); free(dcfgs); free(key_at); free(keys); free(hier);
        free(core); free(recs); free(outs); free(rcs); free(acc); free(lens);
        free(depths); free(counts);
    }
    fclose(in);
    fclose(out);
    return 0;
}
"""


def _sanitizer_compiler() -> str:
    cc = shutil.which("gcc")
    if cc is None:
        pytest.skip("no gcc on PATH")
    for lib in ("libasan.so", "libubsan.so"):
        found = subprocess.run(
            [cc, f"-print-file-name={lib}"], capture_output=True, text=True
        ).stdout.strip()
        if not Path(found).is_file():
            pytest.skip(f"gcc has no {lib}")
    return cc


def _section(typecode: str, values) -> bytes:
    items = array(typecode, values)
    return struct.pack("<q", len(items)) + items.tobytes()


def _shard(table, cells, accesses, *, warmup: int = 0, start_index: int = 0) -> bytes:
    """One shard's input: ``cells`` are ``(row, key)`` pairs of ``table``."""
    hier, core = _sim_values(HierarchyConfig(), CoreConfig(), (1 << 8) - 1)
    recs = pack_records(accesses)
    head = struct.pack(
        "<6q", len(cells), len(accesses), start_index, warmup, BATCH_HIST_SLOTS, 1
    )
    return head + b"".join(
        (
            _section("i", [row for row, _key in cells]),
            _section("i", [key for _row, key in cells]),
            _section("i", table.kinds),
            _section("q", table.cfg_at),
            _section("q", table.cfgs),
            _section("q", table.dcfg_at),
            _section("d", table.dcfgs),
            _section("q", table.key_at),
            _section("I", table.keys),
            _section("q", hier),
            _section("q", core),
            _section("B", recs),
        )
    )


def _context_shard(configs, accesses, **kw) -> bytes:
    """The cells of every config the kernel takes (a fuzz draw may be
    refused, and its cell would never reach the kernel)."""
    table = context_rows(configs)
    cells = [(row, s) for s, row in enumerate(table.slot_row) if row >= 0]
    assert len(cells) > len(configs) // 2
    return _shard(table, cells, accesses, **kw)


def _mixed_shard(rng: random.Random, accesses) -> bytes:
    """Context rows of differing capture geometries, beside table
    families whose sizes are not powers of two."""
    base = ContextPrefetcherConfig()
    configs = [
        base,
        dataclasses.replace(base, block_bytes=48, delta_granularity=96, seed=2),
        dataclasses.replace(base, delta_bits=5, seed=3),
        dataclasses.replace(base, initial_attributes=(Attribute.IP, Attribute.LAST_VALUE)),
        dataclasses.replace(
            base, history_entries=100, sample_depths=tuple(range(1, 101)), seed=5
        ),
        dataclasses.replace(base, adaptive_reduction=False, seed=6),
        dataclasses.replace(base, overload_refs=1, seed=7),
    ]
    table = context_rows(configs)
    assert not table.refused, table.refused
    cells = [(table.slot_row[s], s) for s in range(len(configs))]
    for j in range(6):
        name = f"odd-{j}"
        table.add_family(name, _fuzz_odd_table(rng, 64))
        if name in table.family:
            cells.append(table.family[name])
    # interleave the kinds, so one thread's state is renewed across them
    rng.shuffle(cells)
    return _shard(table, cells, accesses)


def _inputs() -> list[bytes]:
    rng = random.Random(20261022)
    mcf = get_workload("mcf").build().trace()[:3000]
    array_trace = get_workload("array").build().trace()[:2000]
    base = ContextPrefetcherConfig()
    defaults = [dataclasses.replace(base, seed=s) for s in range(12)]
    fuzz_trace = _fuzz_trace(rng, 2500, 64)
    fuzzed = [_fuzz_context(rng, rng.randrange(1, 9)).config for _ in range(10)]
    return [
        _context_shard(defaults, mcf),
        _context_shard(defaults[:5], array_trace, warmup=700, start_index=3),
        _context_shard(fuzzed, fuzz_trace),
        _context_shard(fuzzed[:4], fuzz_trace, warmup=1200),
        _mixed_shard(rng, mcf),
    ]


def _statuses(blocks: bytes, shards: list[bytes]) -> list[int]:
    """Every cell's status, read out of the driver's output."""
    statuses, at = [], 0
    for shard in shards:
        ncells = struct.unpack_from("<q", shard)[0]
        at += ncells * _csrc.OUT_SLOTS * 8
        statuses += array("i", blocks[at : at + ncells * 4]).tolist()
        at += ncells * 4 + ncells * 16 + 2 * ncells * BATCH_HIST_SLOTS * 8
    assert at == len(blocks)
    return statuses


def _build(cc: str, tmp: Path, name: str, flags) -> Path:
    exe = tmp / name
    result = subprocess.run(
        [cc, *BASE_COMPILE_ARGS, *flags, str(tmp / "driver.c"), "-o", str(exe), "-lm"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return exe


@pytest.mark.slow
def test_the_batch_kernel_runs_clean_under_sanitizers(tmp_path) -> None:
    cc = _sanitizer_compiler()
    (tmp_path / "driver.c").write_text(_csrc.SOURCE + DRIVER)
    shards = _inputs()
    (tmp_path / "shards.bin").write_bytes(b"".join(shards))
    plain = _build(cc, tmp_path, "plain", ())
    sanitized = _build(cc, tmp_path, "sanitized", SANITIZE)
    blocks = {}
    for exe in (plain, sanitized):
        out = tmp_path / f"{exe.name}.out"
        result = subprocess.run(
            [str(exe), str(tmp_path / "shards.bin"), str(out)],
            capture_output=True,
            text=True,
            env={"ASAN_OPTIONS": "detect_leaks=1", "UBSAN_OPTIONS": "print_stacktrace=1"},
        )
        assert result.returncode == 0, result.stderr[-4000:]
        assert "runtime error" not in result.stderr, result.stderr[-4000:]
        blocks[exe.name] = out.read_bytes()
    assert blocks["sanitized"] == blocks["plain"]
    assert set(_statuses(blocks["plain"], shards)) == {0}
