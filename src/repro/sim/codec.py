"""Versioned, lossless :class:`SimulationResult` codec.

The parallel sweep engine ships results across process boundaries and
the result DB persists them between runs; both paths go
through this codec, so a decoded result must compare equal — field for
field, dataclass ``==`` — to the result the simulator produced.  The
determinism-parity suite (``tests/sim/test_parallel_parity.py``)
enforces exactly that.

``CODEC_VERSION`` is bumped on any schema change.  The result DB treats
a version mismatch as a miss (re-simulate), never as an error, so stale
rows degrade to a recompute rather than a crash.

A sweep cell travels as text: :func:`render_text` writes the canonical
JSON of the encoded form (sorted keys, compact separators) straight
from plain values, so a worker's payload is byte for byte the row the
result DB stores.
:func:`encode_text` feeds it from a :class:`SimulationResult`; the
kernel's batch path feeds it from its output block.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from json import dumps
from json.encoder import encode_basestring_ascii
from typing import Any

from repro.memory.stats import ACCESS_CLASS_ORDER, AccessClassifier, CacheStats
from repro.sim.metrics import HitDepthCDF, SimulationResult

#: schema version of the encoded form; bump on any field change
CODEC_VERSION = 1

_CACHE_STATS_FIELDS = (
    "name",
    "accesses",
    "hits",
    "misses",
    "prefetch_fills",
    "demand_fills",
)


class CodecError(ValueError):
    """An encoded result cannot be decoded (wrong version or shape)."""


def _encode_cache_stats(stats: CacheStats) -> dict[str, Any]:
    return {name: getattr(stats, name) for name in _CACHE_STATS_FIELDS}


def _decode_cache_stats(data: Mapping[str, Any]) -> CacheStats:
    try:
        return CacheStats(**{name: data[name] for name in _CACHE_STATS_FIELDS})
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed cache-stats record: {exc}") from exc


def encode_result(result: SimulationResult) -> dict[str, Any]:
    """Encode one run into a JSON-serializable dict (version-stamped)."""
    return {
        "codec": CODEC_VERSION,
        "workload": result.workload,
        "prefetcher": result.prefetcher,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "l1": _encode_cache_stats(result.l1),
        "l2": _encode_cache_stats(result.l2),
        "classifier": {
            "demand_accesses": result.classifier.demand_accesses,
            "counts": {
                cls.name: result.classifier.counts[cls]
                for cls in ACCESS_CLASS_ORDER
            },
        },
        # JSON keys must be strings; depths decode back through int()
        "hit_depths": {
            str(depth): count
            for depth, count in sorted(result.hit_depths.histogram.items())
        },
        "prefetches_issued": result.prefetches_issued,
        "prefetches_shadow": result.prefetches_shadow,
        "prefetches_rejected": result.prefetches_rejected,
        "prefetches_redundant": result.prefetches_redundant,
        "prefetcher_accuracy": result.prefetcher_accuracy,
        "storage_bits": result.storage_bits,
    }


def _json_number(value: float) -> str:
    # json.dumps writes a number as its repr, except the non-finite floats
    if isinstance(value, float) and not math.isfinite(value):
        return dumps(value)
    return repr(value)


def render_text(
    workload: str,
    prefetcher: str,
    counters: Sequence[int],
    hist: Iterable[tuple[int, int]],
    accuracy: float,
    storage_bits: int,
    levels: tuple[str, str],
) -> str:
    """The canonical JSON text of one encoded result, from plain values.

    Byte-equal to ``json.dumps(encode_result(r), sort_keys=True,
    separators=(",", ":"))`` for the result ``r`` the values describe:

    * ``counters``: ``instructions, cycles``; then per cache level
      ``accesses, hits, misses, prefetch_fills, demand_fills``, L1
      first; then the classifier's ``demand_accesses`` and its counts in
      ``ACCESS_CLASS_ORDER``; then ``prefetches_issued, _shadow,
      _rejected, _redundant`` (23 integers);
    * ``hist``: ``(depth, count)`` pairs folded as
      :meth:`HitDepthCDF.add` folds them (duplicate depths sum, zero
      counts stay);
    * ``levels``: the L1 and L2 ``CacheStats`` names.
    """
    (
        instructions, cycles,
        l1_accesses, l1_hits, l1_misses, l1_prefetch_fills, l1_demand_fills,
        l2_accesses, l2_hits, l2_misses, l2_prefetch_fills, l2_demand_fills,
        demand_accesses,
        hit_prefetched, shorter_wait, non_timely, miss_not_prefetched,
        hit_older_demand, prefetch_never_hit,
        issued, shadow, rejected, redundant,
    ) = counters
    depths: dict[int, int] = {}
    for depth, count in hist:
        depths[depth] = depths.get(depth, 0) + count
    # the keys sort as strings ("10" before "9"); a closing quote sorts
    # below every digit and "-", so sorting the rendered entries sorts
    # them by key
    hit_depths = ",".join(
        sorted([f'"{depth}":{count}' for depth, count in depths.items()])
    )
    l1_name, l2_name = levels
    # every object's keys in sorted order, as sort_keys writes them
    return (
        f'{{"classifier":{{"counts":{{"HIT_OLDER_DEMAND":{hit_older_demand},'
        f'"HIT_PREFETCHED":{hit_prefetched},'
        f'"MISS_NOT_PREFETCHED":{miss_not_prefetched},'
        f'"NON_TIMELY":{non_timely},"PREFETCH_NEVER_HIT":{prefetch_never_hit},'
        f'"SHORTER_WAIT":{shorter_wait}}},"demand_accesses":{demand_accesses}}},'
        f'"codec":{CODEC_VERSION},"cycles":{cycles},"hit_depths":{{{hit_depths}}},'
        f'"instructions":{instructions},'
        f'"l1":{{"accesses":{l1_accesses},"demand_fills":{l1_demand_fills},'
        f'"hits":{l1_hits},"misses":{l1_misses},'
        f'"name":{encode_basestring_ascii(l1_name)},'
        f'"prefetch_fills":{l1_prefetch_fills}}},'
        f'"l2":{{"accesses":{l2_accesses},"demand_fills":{l2_demand_fills},'
        f'"hits":{l2_hits},"misses":{l2_misses},'
        f'"name":{encode_basestring_ascii(l2_name)},'
        f'"prefetch_fills":{l2_prefetch_fills}}},'
        f'"prefetcher":{encode_basestring_ascii(prefetcher)},'
        f'"prefetcher_accuracy":{_json_number(accuracy)},'
        f'"prefetches_issued":{issued},"prefetches_redundant":{redundant},'
        f'"prefetches_rejected":{rejected},"prefetches_shadow":{shadow},'
        f'"storage_bits":{storage_bits},'
        f'"workload":{encode_basestring_ascii(workload)}}}'
    )


def encode_text(result: SimulationResult) -> str:
    """:func:`encode_result` as canonical JSON text (the stored form)."""
    l1, l2, classifier = result.l1, result.l2, result.classifier
    counts = classifier.counts
    return render_text(
        result.workload,
        result.prefetcher,
        (
            result.instructions,
            result.cycles,
            l1.accesses, l1.hits, l1.misses, l1.prefetch_fills, l1.demand_fills,
            l2.accesses, l2.hits, l2.misses, l2.prefetch_fills, l2.demand_fills,
            classifier.demand_accesses,
            *(counts[cls] for cls in ACCESS_CLASS_ORDER),
            result.prefetches_issued,
            result.prefetches_shadow,
            result.prefetches_rejected,
            result.prefetches_redundant,
        ),
        result.hit_depths.histogram.items(),
        result.prefetcher_accuracy,
        result.storage_bits,
        (l1.name, l2.name),
    )


def decode_result(data: Mapping[str, Any]) -> SimulationResult:
    """Inverse of :func:`encode_result`; raises :class:`CodecError`."""
    if not isinstance(data, Mapping):
        raise CodecError(
            f"encoded result is not an object (got {type(data).__name__})"
        )
    version = data.get("codec")
    if version != CODEC_VERSION:
        raise CodecError(
            f"encoded result has codec version {version!r}; "
            f"this build reads version {CODEC_VERSION}"
        )
    try:
        classifier = AccessClassifier(
            counts={
                cls: int(data["classifier"]["counts"][cls.name])
                for cls in ACCESS_CLASS_ORDER
            },
            demand_accesses=int(data["classifier"]["demand_accesses"]),
        )
        hit_depths = HitDepthCDF(
            histogram=Counter(
                {int(depth): int(count) for depth, count in data["hit_depths"].items()}
            )
        )
        return SimulationResult(
            workload=data["workload"],
            prefetcher=data["prefetcher"],
            instructions=int(data["instructions"]),
            cycles=int(data["cycles"]),
            l1=_decode_cache_stats(data["l1"]),
            l2=_decode_cache_stats(data["l2"]),
            classifier=classifier,
            hit_depths=hit_depths,
            prefetches_issued=int(data["prefetches_issued"]),
            prefetches_shadow=int(data["prefetches_shadow"]),
            prefetches_rejected=int(data["prefetches_rejected"]),
            prefetches_redundant=int(data["prefetches_redundant"]),
            prefetcher_accuracy=float(data["prefetcher_accuracy"]),
            storage_bits=int(data["storage_bits"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        if isinstance(exc, CodecError):
            raise
        raise CodecError(f"malformed encoded result: {exc}") from exc
