"""The C MT19937 against CPython's ``random.Random``, bit for bit.

The context kernel's exactness argument rests on reproducing CPython's
RNG exactly: seeding (``init_by_array`` over the little-endian u32 words
of ``|seed|``), ``random()`` (``genrand_res53``), ``choice`` (the
rejection-sampling ``_randbelow``) and ``choices`` (cumulative-weight
``bisect_right`` over ``random() * total``).  This suite compares long
draw sequences across a spread of seeds — including the exact float
comparisons the bandit makes at its adaptive-ε and shadow-probability
branch points, where a one-ulp divergence would flip a branch.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.sim import native as native_pkg

pytestmark = pytest.mark.skipif(
    not native_pkg.is_available(),
    reason="compiled kernel unavailable (cffi/toolchain)",
)

#: 32 seeds spanning the shapes ``random_seed`` key-folds differently:
#: zero, small ints, word-boundary values, multi-word ints, the default
SEEDS = (
    [0, 1, 2, 3, 7, 31, 0x5EED, 0xDEAD, 12345, 99999]
    + [(1 << 31) - 1, 1 << 31, (1 << 32) - 1, 1 << 32, (1 << 40) + 12345]
    + [(1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64, 987654321987654321]
    + [(1 << 96) + 17, (1 << 128) - 1, 3141592653589793238462643383279]
    + [-1, -0x5EED, -(1 << 40), 5, 6, 8, 9, 10, 11]
)
assert len(SEEDS) == 32

NUM_RANDOM = 10_000
NUM_CHOICE = 2_000
NUM_CHOICES = 2_000

#: the bandit's default branch thresholds: adaptive ε endpoints, the
#: fixed-ε ablation value and the shadow probability
BRANCH_POINTS = (0.01, 0.05, 0.10, 0.20)


def _rng_pair(kernel, seed):
    """(CPython Random, C RpRng) seeded identically."""
    ffi, lib = kernel.ffi, kernel.lib
    v = abs(int(seed))
    words = []
    while v:
        words.append(v & 0xFFFFFFFF)
        v >>= 32
    words = words or [0]
    key = ffi.new("uint32_t[]", words)
    handle = ffi.gc(lib.rp_rng_new(key, len(words)), lib.rp_rng_free)
    return random.Random(seed), handle


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


@pytest.fixture(scope="module")
def kernel():
    from repro.sim.native.build import kernel_or_none

    k = kernel_or_none()
    assert k is not None
    return k


class TestRandomDraws:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_bit_exact(self, kernel, seed):
        py, c = _rng_pair(kernel, seed)
        lib = kernel.lib
        for i in range(NUM_RANDOM):
            a = py.random()
            b = lib.rp_rng_random(c)
            assert _bits(a) == _bits(b), f"seed {seed} draw {i}: {a!r} != {b!r}"

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_branch_point_comparisons(self, kernel, seed):
        # the ε-greedy arm takes `random() < eps` and `random() < p`
        # branches; identical bits imply identical branches, but assert
        # the comparisons directly at every default threshold as a belt
        py, c = _rng_pair(kernel, seed)
        lib = kernel.lib
        for _ in range(NUM_RANDOM):
            a = py.random()
            b = lib.rp_rng_random(c)
            for eps in BRANCH_POINTS:
                assert (a < eps) == (b < eps)
            # adaptive ε sweeps eps_min + range * (1 - ema); sample the
            # annealed values the default config can produce
            for ema in (0.0, 0.25, 0.5, 0.75, 1.0):
                eps = 0.01 + 0.19 * (1.0 - ema)
                assert (a < eps) == (b < eps)


class TestChoice:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_choice_indices(self, kernel, seed):
        py, c = _rng_pair(kernel, seed)
        lib = kernel.lib
        # the bandit calls choice() over the ranked candidate list whose
        # length is 1..cst_links; cycle through realistic sizes
        for i in range(NUM_CHOICE):
            n = (i % 7) + 1
            seq = list(range(n))
            a = py.choice(seq)
            b = lib.rp_rng_choice_index(c, n)
            assert a == b, f"seed {seed} draw {i} (n={n})"


class TestChoices:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_choices_indices(self, kernel, seed):
        py, c = _rng_pair(kernel, seed)
        ffi, lib = kernel.ffi, kernel.lib
        # softmax weights: exp((score - top) / tau) in (0, 1]; mirror the
        # shape with deterministic pseudo-weights from a separate RNG
        wrng = random.Random(0xBEEF ^ (abs(int(seed)) & 0xFFFF))
        for i in range(NUM_CHOICES):
            n = (i % 5) + 1
            weights = [wrng.random() + 1e-9 for _ in range(n)]
            seq = list(range(n))
            a = py.choices(seq, weights)[0]
            b = lib.rp_rng_choices_index(c, ffi.new("double[]", weights), n)
            assert a == b, f"seed {seed} draw {i} (n={n})"


class TestGetrandbits:
    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_getrandbits_words(self, kernel, seed):
        py, c = _rng_pair(kernel, seed)
        lib = kernel.lib
        for i in range(2_000):
            k = (i % 32) + 1
            assert py.getrandbits(k) == lib.rp_rng_getrandbits(c, k)
