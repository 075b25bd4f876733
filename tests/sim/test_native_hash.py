"""The kernel's hash hooks against CPython's own ``hash``, bit for bit.

Every context key the compiled kernel builds must equal the interpreted
oracle's ``context_hash``: CPython's ``long_hash`` (reduction modulo
2**61 - 1, with ``-1`` mapped to ``-2``), its xxHash-based tuple hash,
and the golden-ratio finalizer.  The kernel reduces by the Mersenne fold
and builds every key from per-attribute lane hashes, so this suite pins
the exported reference hooks (``rp_hash_uint``, ``rp_hash_int``,
``rp_hash_tuple``, ``rp_ctx_key``) to CPython at the reduction's edges,
over random values, and for every active-attribute bitmap.
"""

from __future__ import annotations

import random

import pytest

from repro.core.attributes import Attribute, AttributeSet
from repro.core.context import context_hash
from repro.sim import native as native_pkg

pytestmark = pytest.mark.skipif(
    not native_pkg.is_available(),
    reason="compiled kernel unavailable (numpy/cffi/toolchain)",
)

M61 = (1 << 61) - 1
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

#: the reduction's edges: 0, 1, M - 1, M, M + 1, the word's top, and the
#: signed ones (-1 hashes to -2 in CPython, INT64_MIN has no |v| in int64)
UNSIGNED_EDGES = (0, 1, M61 - 1, M61, M61 + 1, 2 * M61, (1 << 64) - 1, 1 << 63)
SIGNED_EDGES = (0, 1, -1, -2, M61, -M61, -(M61 - 1), -(M61 + 1), INT64_MIN, INT64_MAX)

#: the two attributes the kernel hashes as signed values
SIGNED = {Attribute.LAST_VALUE, Attribute.REG_VALUE}


@pytest.fixture(scope="module")
def kernel():
    from repro.sim.native.build import kernel_or_none

    k = kernel_or_none()
    assert k is not None
    return k


def _as_i64(v: int) -> int:
    """An unsigned 64-bit pattern as the int64 the C hooks take."""
    return v - (1 << 64) if v >= 1 << 63 else v


class TestIntHash:
    def test_uint_edges(self, kernel):
        for v in UNSIGNED_EDGES:
            assert kernel.lib.rp_hash_uint(v) == hash(v), v

    def test_int_edges(self, kernel):
        for v in SIGNED_EDGES:
            assert kernel.lib.rp_hash_int(v) == hash(v), v

    def test_random_values(self, kernel):
        rng = random.Random(1861)
        lib = kernel.lib
        for _ in range(10_000):
            u = rng.getrandbits(64)
            s = rng.randint(INT64_MIN, INT64_MAX)
            assert lib.rp_hash_uint(u) == hash(u), u
            assert lib.rp_hash_int(s) == hash(s), s


class TestTupleHash:
    @pytest.mark.parametrize("length", range(10))
    def test_matches_cpython(self, kernel, length):
        rng = random.Random(length)
        ffi, lib = kernel.ffi, kernel.lib
        for _ in range(200):
            items = tuple(rng.randint(INT64_MIN, INT64_MAX) for _ in range(length))
            hashes = ffi.new("int64_t[]", [hash(v) for v in items] or [0])
            assert lib.rp_hash_tuple(hashes, length) == hash(items), items


class TestContextKey:
    def test_every_bitmap(self, kernel):
        rng = random.Random(61)
        ffi, lib = kernel.ffi, kernel.lib
        for _ in range(8):
            values = tuple(
                rng.randint(INT64_MIN, INT64_MAX)
                if attr in SIGNED
                else rng.choice((rng.getrandbits(64), rng.getrandbits(16)))
                for attr in Attribute
            )
            c_values = ffi.new("int64_t[]", [_as_i64(v) for v in values])
            for bits in range(256):
                want = context_hash(values, AttributeSet.from_bits(bits), 64)
                got = lib.rp_ctx_key(c_values, bits) & ((1 << 64) - 1)
                assert got == want, (values, bits)

    def test_edge_values(self, kernel):
        ffi, lib = kernel.ffi, kernel.lib
        for u, s in zip(UNSIGNED_EDGES, SIGNED_EDGES):
            values = tuple(s if attr in SIGNED else u for attr in Attribute)
            c_values = ffi.new("int64_t[]", [_as_i64(v) for v in values])
            for bits in (0, 1, 16, 80, 255):
                want = context_hash(values, AttributeSet.from_bits(bits), 64)
                assert lib.rp_ctx_key(c_values, bits) & ((1 << 64) - 1) == want
