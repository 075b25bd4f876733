"""Round-trip tests for the versioned SimulationResult codec."""

import json
from collections import Counter

import pytest

from repro.memory.stats import ACCESS_CLASS_ORDER, AccessClassifier, CacheStats
from repro.sim.codec import (
    CODEC_VERSION,
    CodecError,
    decode_result,
    encode_result,
    encode_text,
    render_text,
)
from repro.sim.config import PREFETCHER_FACTORIES
from repro.sim.export import (
    comparison_from_json,
    comparison_to_json,
    result_from_json,
    result_to_json,
)
from repro.sim.metrics import HitDepthCDF, SimulationResult
from repro.sim.runner import compare, run_workload


@pytest.fixture(scope="module")
def result():
    # the context prefetcher populates every field: hit depths, the
    # classifier breakdown, shadow counters, the accuracy EMA
    return run_workload("list", "context", limit=1200)


class TestCodec:
    def test_round_trip_equality(self, result):
        assert decode_result(encode_result(result)) == result

    def test_json_round_trip_equality(self, result):
        assert decode_result(json.loads(json.dumps(encode_result(result)))) == result

    def test_version_stamped(self, result):
        assert encode_result(result)["codec"] == CODEC_VERSION

    def test_version_mismatch_raises(self, result):
        encoded = encode_result(result)
        encoded["codec"] = CODEC_VERSION + 1
        with pytest.raises(CodecError):
            decode_result(encoded)

    def test_malformed_raises(self, result):
        encoded = encode_result(result)
        del encoded["classifier"]
        with pytest.raises(CodecError):
            decode_result(encoded)
        with pytest.raises(CodecError):
            decode_result({"codec": CODEC_VERSION})
        # valid JSON that is not an object
        for data in ([], None):
            with pytest.raises(CodecError):
                decode_result(data)


def canonical(result) -> str:
    return json.dumps(encode_result(result), sort_keys=True, separators=(",", ":"))


def counters_of(result) -> tuple:
    """``render_text``'s counters for ``result``, field by field."""
    l1, l2, cls = result.l1, result.l2, result.classifier
    return (
        result.instructions,
        result.cycles,
        l1.accesses, l1.hits, l1.misses, l1.prefetch_fills, l1.demand_fills,
        l2.accesses, l2.hits, l2.misses, l2.prefetch_fills, l2.demand_fills,
        cls.demand_accesses,
        *(cls.counts[c] for c in ACCESS_CLASS_ORDER),
        result.prefetches_issued,
        result.prefetches_shadow,
        result.prefetches_rejected,
        result.prefetches_redundant,
    )


class TestEncodeText:
    """``encode_text``/``render_text`` write the canonical JSON of
    ``encode_result``, byte for byte."""

    def test_fixture_result(self, result):
        assert encode_text(result) == canonical(result)

    @pytest.mark.parametrize("prefetcher", sorted(PREFETCHER_FACTORIES))
    def test_every_family(self, prefetcher):
        result = run_workload("list", prefetcher, limit=1200)
        assert encode_text(result) == canonical(result)

    def _result(self, hist, workload="wl"):
        classifier = AccessClassifier()
        for i, cls in enumerate(ACCESS_CLASS_ORDER):
            classifier.counts[cls] = 10 * i + 1
        classifier.demand_accesses = 77
        depths = HitDepthCDF()
        for depth, count in hist:
            depths.add(depth, count)
        return SimulationResult(
            workload=workload,
            prefetcher="context",
            instructions=12345,
            cycles=67890,
            l1=CacheStats("L1D", 11, 7, 4, 2, 3),
            l2=CacheStats("L2", 4, 1, 3, 5, 6),
            classifier=classifier,
            hit_depths=depths,
            prefetches_issued=9,
            prefetches_shadow=8,
            prefetches_rejected=7,
            prefetches_redundant=6,
            prefetcher_accuracy=0.1 + 0.2,
            storage_bits=254_976,
        )

    @pytest.mark.parametrize(
        "hist",
        [
            [(9, 3), (10, 2)],  # "10" sorts before "9"
            [(4, 0), (30, 5)],  # a zero count stays
            [(10, 2), (9, 3), (10, 1), (100, 4), (1, 1)],  # duplicates sum
            [],
        ],
    )
    def test_render_matches_add_then_encode(self, hist):
        want = self._result(hist)
        text = render_text(
            want.workload,
            want.prefetcher,
            counters_of(want),
            hist,
            want.prefetcher_accuracy,
            want.storage_bits,
            ("L1D", "L2"),
        )
        assert text == canonical(want)
        assert decode_result(json.loads(text)) == want

    def test_names_are_escaped(self):
        result = self._result([(2, 1)], workload='ad "hoc" \\ é')
        assert encode_text(result) == canonical(result)

    def test_non_finite_and_integer_accuracy(self):
        result = self._result([(2, 1)])
        for accuracy in (float("nan"), float("inf"), 0, 0.0, 1e-300):
            result.prefetcher_accuracy = accuracy
            assert encode_text(result) == canonical(result)

    def test_counter_histogram_round_trips(self):
        result = self._result([])
        result.hit_depths = HitDepthCDF(Counter({9: 1, 10: 0}))
        assert encode_text(result) == canonical(result)


class TestExportJson:
    def test_result_json_round_trip(self, result):
        assert result_from_json(result_to_json(result)) == result

    def test_comparison_json_round_trip(self):
        sweep = compare(["array"], ("none", "stride"), limit=600)
        restored = comparison_from_json(comparison_to_json(sweep))
        assert restored.workloads() == sweep.workloads()
        assert restored.prefetchers() == sweep.prefetchers()
        for wl in sweep.workloads():
            for pf in sweep.prefetchers():
                assert restored.get(wl, pf) == sweep.get(wl, pf)
