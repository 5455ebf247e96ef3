"""Serialization of decomposed datasets — the on-disk refactored format.

The simulator models staged objects by size only; a real deployment has
to persist them.  This module defines a compact, self-describing binary
format for an :class:`~repro.core.error_control.AccuracyLadder`:

* a JSON header (magic, version, shapes, stride, metric, bucket table,
  ``dtype_nbytes`` — the in-memory precision of the decomposition);
* the base representation (raw little-endian float64);
* the coefficient stream as interleaved ``(position: int64, value:
  float64)`` records in retrieval order.

The wire format is always float64 (float32 values widen exactly), so
payload sizes are dtype-independent; ``dtype_nbytes`` records the
*logical* precision, and unpacking casts the base and the value stream
back to it (and with them the dense augmentations, scattered from the
stream when first read) so a float32 decomposition round-trips as
float32.

Because the stream is interleaved record-by-record, **any byte prefix of
the payload is a valid partial retrieval** — exactly the property the
paper's shuffle-and-tag staged layout provides on disk.  ``pack_ladder``
/ ``unpack_ladder`` round-trip the full object; ``unpack_partial``
rebuilds from a truncated payload (base + however many coefficients were
actually fetched), the consumer-side counterpart of an adaptive
retrieval.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.core.error_control import (
    AccuracyLadder,
    AugmentationBucket,
    ErrorBudget,
    ErrorMetric,
    _StreamDecomposition,
)

__all__ = [
    "pack_ladder",
    "unpack_ladder",
    "unpack_partial",
    "header_of",
    "payload_size_through",
    "RECORD_SIZE",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
]

FORMAT_MAGIC = b"TNGO"
FORMAT_VERSION = 1

#: Header framing: magic (4s) + version (<u2) + header length (<u4).
_PREFIX = struct.Struct("<4sHI")

#: One coefficient record: flat grid position + value.
_RECORD_DTYPE = np.dtype([("pos", "<i8"), ("val", "<f8")])

#: Bytes per serialized coefficient record.
RECORD_SIZE = _RECORD_DTYPE.itemsize


def _encode_header(ladder: AccuracyLadder) -> bytes:
    dec = ladder.decomposition
    header = {
        "shapes": [list(s) for s in dec.shapes],
        "stride": dec.d if isinstance(dec.d, int) else list(dec.d),
        "transform": dec.transform,
        "dtype_nbytes": int(dec.dtype_nbytes),
        "metric": ladder.metric.value,
        "base_error": ladder.base_error,
        "stream_length": ladder.stream_length,
        "level_offsets": [int(x) for x in ladder._level_offsets],
        "buckets": [
            {
                "index": b.index,
                "bound": b.bound,
                "start": b.start,
                "stop": b.stop,
                "finest_level": b.finest_level,
                "achieved_error": b.achieved_error,
            }
            for b in ladder.buckets
        ],
    }
    return json.dumps(header, separators=(",", ":")).encode()


def pack_ladder(ladder: AccuracyLadder) -> bytes:
    """Serialize a ladder to bytes (header + base + record stream)."""
    header = _encode_header(ladder)
    base = np.ascontiguousarray(
        ladder.decomposition.base, dtype="<f8"
    ).tobytes()
    records = np.empty(ladder.stream_length, dtype=_RECORD_DTYPE)
    records["pos"] = ladder._stream_positions
    records["val"] = ladder._stream_values
    return b"".join(
        [_PREFIX.pack(FORMAT_MAGIC, FORMAT_VERSION, len(header)), header, base,
         records.tobytes()]
    )


def header_of(payload: bytes) -> dict:
    """Parse and validate the header of a serialized ladder."""
    if len(payload) < _PREFIX.size:
        raise ValueError("payload too short for a Tango header")
    magic, version, hlen = _PREFIX.unpack_from(payload, 0)
    if magic != FORMAT_MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a Tango payload")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    if len(payload) < _PREFIX.size + hlen:
        raise ValueError("payload truncated inside the header")
    header = json.loads(payload[_PREFIX.size : _PREFIX.size + hlen])
    header["_header_end"] = _PREFIX.size + hlen
    return header


def payload_size_through(ladder: AccuracyLadder, upto_bucket: int) -> int:
    """Bytes of payload needed to reconstruct through rung ``upto_bucket``.

    The progressive-retrieval planning primitive: header + base + the
    record-stream prefix covering buckets 1..m.
    """
    header = _encode_header(ladder)
    cut = 0 if upto_bucket == 0 else ladder.bucket(upto_bucket).stop
    return (
        _PREFIX.size
        + len(header)
        + ladder.decomposition.base.size * 8
        + cut * _RECORD_DTYPE.itemsize
    )


def unpack_ladder(payload: bytes) -> AccuracyLadder:
    """Deserialize a complete ladder (exact round-trip of pack_ladder)."""
    ladder, available, declared = _unpack(payload)
    if available < declared:
        raise ValueError(
            f"payload holds {available} of {declared} coefficients "
            "(use unpack_partial for prefix payloads)"
        )
    return ladder


def unpack_partial(payload: bytes) -> AccuracyLadder:
    """Deserialize from a prefix payload.

    The returned ladder carries only the coefficients present; its bucket
    table is clipped to the fully-covered rungs, so ``reconstruct(m)``
    works for every rung that was actually retrieved.
    """
    ladder, _, _ = _unpack(payload)
    return ladder


def _unpack(payload: bytes) -> tuple[AccuracyLadder, int, int]:
    header = header_of(payload)
    shapes = [tuple(s) for s in header["shapes"]]
    stream = int(header["stream_length"])
    dtype_nbytes = int(header.get("dtype_nbytes", 8))
    work_dtype = np.float32 if dtype_nbytes == 4 else np.float64

    base_start = header["_header_end"]
    base_count = int(np.prod(shapes[-1]))
    base_end = base_start + base_count * 8
    if len(payload) < base_end:
        raise ValueError("payload truncated inside the base representation")
    base = np.frombuffer(
        payload, dtype="<f8", count=base_count, offset=base_start
    ).reshape(shapes[-1])

    available = min(stream, (len(payload) - base_end) // _RECORD_DTYPE.itemsize)
    records = (
        np.frombuffer(payload, dtype=_RECORD_DTYPE, count=available, offset=base_end)
        if available > 0
        else np.empty(0, dtype=_RECORD_DTYPE)
    )
    positions = records["pos"].astype(np.int64)
    values = records["val"].astype(work_dtype)
    level_offsets = np.asarray(header["level_offsets"], dtype=np.int64)

    metric = ErrorMetric(header["metric"])
    buckets = [
        AugmentationBucket(
            index=b["index"],
            bound=b["bound"],
            start=b["start"],
            stop=b["stop"],
            finest_level=b["finest_level"],
            achieved_error=b["achieved_error"],
        )
        for b in header["buckets"]
        if b["stop"] <= available
    ]
    budget = ErrorBudget.create(metric, [b["bound"] for b in header["buckets"]])

    # The dense augmentations are scattered from the available
    # coefficients when first read, so the whole refactor API
    # (recompose_full etc.) works on the result.
    dec = _StreamDecomposition(
        np.array(base, dtype=work_dtype),
        shapes,
        header["stride"] if isinstance(header["stride"], int) else tuple(header["stride"]),
        dtype_nbytes,
        header.get("transform", "linear"),
        (positions, values, level_offsets),
    )
    ladder = AccuracyLadder(
        decomposition=dec,
        budget=budget,
        stream_positions=positions,
        stream_values=values,
        level_offsets=level_offsets,
        buckets=buckets,
        base_error=float(header["base_error"]),
    )
    return ladder, available, stream
