"""Tests for repro.core.serialize — the on-disk refactored format."""

import hashlib

import numpy as np
import pytest

from repro.apps import make_app
from repro.core.error_control import ErrorMetric, build_ladder
from repro.core.metrics import nrmse
from repro.core.refactor import decompose, recompose_full
from repro.core.serialize import (
    header_of,
    pack_ladder,
    payload_size_through,
    unpack_ladder,
    unpack_partial,
)
from repro.engine import memo
from repro.experiments.config import ScenarioConfig

#: sha256 of ``pack_ladder`` for each app's default-config memo ladder
#: (``ScenarioConfig()``: 256x256, decimation 16, four NRMSE bounds,
#: seed 0), recorded when ladders still kept their dense decomposition.
DEFAULT_PAYLOAD_SHA256 = {
    "xgc": "0ee4e6f94885e2bfc89a81e46aec1bb1dad881dad94c6e45bff6e3b39a5b104b",
    "cfd": "4e44a17e056690bf4ca6556a76d8524f0888f5d3c3b5bb60bdd06361d44bd667",
    "genasis": "96f22b95242a73d703862960ce0afd9f8b914a01393b9fc7143e47920d6ef638",
}


@pytest.fixture
def ladder(smooth_field):
    dec = decompose(smooth_field, 4)
    return build_ladder(dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE)


@pytest.fixture
def payload(ladder):
    return pack_ladder(ladder)


class TestRoundTrip:
    def test_header(self, payload, ladder):
        header = header_of(payload)
        assert header["stream_length"] == ladder.stream_length
        assert header["metric"] == "nrmse"
        assert len(header["buckets"]) == ladder.num_buckets

    def test_exact_stream(self, payload, ladder):
        restored = unpack_ladder(payload)
        np.testing.assert_array_equal(
            restored._stream_positions, ladder._stream_positions
        )
        np.testing.assert_allclose(restored._stream_values, ladder._stream_values)

    def test_base_preserved(self, payload, ladder):
        restored = unpack_ladder(payload)
        np.testing.assert_allclose(restored.decomposition.base, ladder.decomposition.base)

    def test_full_reconstruction_identical(self, payload, ladder, smooth_field):
        restored = unpack_ladder(payload)
        np.testing.assert_allclose(
            recompose_full(restored.decomposition), smooth_field, atol=1e-10
        )

    def test_rung_reconstructions_match(self, payload, ladder):
        restored = unpack_ladder(payload)
        for m in range(ladder.num_buckets + 1):
            np.testing.assert_allclose(restored.reconstruct(m), ladder.reconstruct(m))

    def test_bucket_table_preserved(self, payload, ladder):
        restored = unpack_ladder(payload)
        for a, b in zip(restored.buckets, ladder.buckets):
            assert (a.index, a.bound, a.start, a.stop, a.finest_level) == (
                b.index, b.bound, b.start, b.stop, b.finest_level
            )

    def test_psnr_metric_roundtrip(self, smooth_field):
        dec = decompose(smooth_field, 3)
        ladder = build_ladder(dec, [30.0, 50.0], ErrorMetric.PSNR)
        restored = unpack_ladder(pack_ladder(ladder))
        assert restored.metric is ErrorMetric.PSNR


class TestPartial:
    def test_prefix_through_bucket(self, payload, ladder, smooth_field):
        """A payload cut at rung m's boundary reconstructs rung m exactly."""
        for m in range(ladder.num_buckets + 1):
            size = payload_size_through(ladder, m)
            restored = unpack_partial(payload[:size])
            np.testing.assert_allclose(restored.reconstruct(m), ladder.reconstruct(m))
            if m > 0 and ladder.bucket(m).cardinality > 0:
                err = nrmse(smooth_field, restored.reconstruct(m))
                assert err <= ladder.bucket(m).bound * (1 + 1e-9)

    def test_bucket_table_clipped(self, payload, ladder):
        size = payload_size_through(ladder, 1)
        restored = unpack_partial(payload[:size])
        assert len(restored.buckets) <= ladder.num_buckets
        assert all(b.stop <= restored.stream_length for b in restored.buckets)

    def test_arbitrary_byte_prefix_is_valid(self, payload, ladder):
        """Any cut point past the base yields a loadable object."""
        base_size = payload_size_through(ladder, 0)
        for extra in (0, 7, 160, 161, 1601):
            restored = unpack_partial(payload[: base_size + extra])
            assert restored.stream_length <= ladder.stream_length
            restored.reconstruct_at_cut(restored.stream_length)

    def test_full_payload_via_partial(self, payload, ladder):
        restored = unpack_partial(payload)
        assert restored.stream_length == ladder.stream_length

    def test_unpack_ladder_rejects_prefix(self, payload, ladder):
        size = payload_size_through(ladder, 1)
        with pytest.raises(ValueError, match="unpack_partial"):
            unpack_ladder(payload[:size])


class TestValidation:
    def test_bad_magic(self, payload):
        with pytest.raises(ValueError, match="magic"):
            header_of(b"XXXX" + payload[4:])

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            header_of(b"TN")

    def test_truncated_header(self, payload):
        with pytest.raises(ValueError, match="header"):
            header_of(payload[:12])

    def test_truncated_base(self, payload):
        header = header_of(payload)
        with pytest.raises(ValueError, match="base"):
            unpack_partial(payload[: header["_header_end"] + 8])

    def test_sizes_monotone(self, ladder):
        sizes = [payload_size_through(ladder, m) for m in range(ladder.num_buckets + 1)]
        assert sizes == sorted(sizes)
        assert sizes[-1] <= len(pack_ladder(ladder))


class TestDefaultPayloads:
    @pytest.mark.parametrize("app", sorted(DEFAULT_PAYLOAD_SHA256))
    def test_pack_ladder_bytes_pinned(self, app):
        cfg = ScenarioConfig()
        memo.clear_cache()
        _, ladder = memo.ladder_for_app(
            make_app(app),
            grid_shape=cfg.grid_shape,
            decimation_ratio=cfg.decimation_ratio,
            metric=cfg.metric,
            error_bounds=tuple(cfg.error_bounds),
            seed=cfg.seed,
        )
        memo.clear_cache()
        payload = pack_ladder(ladder)
        assert hashlib.sha256(payload).hexdigest() == DEFAULT_PAYLOAD_SHA256[app]
        restored = unpack_ladder(payload)
        assert pack_ladder(restored) == payload
        # Neither packing nor unpacking builds the dense augmentations.
        for lad in (ladder, restored):
            assert "augmentations" not in vars(lad.decomposition)


class TestDtypeRoundTrip:
    def test_float32_ladder_roundtrips_as_float32(self):
        rng = np.random.default_rng(5)
        f32 = rng.standard_normal((40, 32)).astype(np.float32)
        ladder = build_ladder(
            decompose(f32, 3, dtype="preserve"), [0.1, 0.01], ErrorMetric.NRMSE
        )
        payload = pack_ladder(ladder)
        assert header_of(payload)["dtype_nbytes"] == 4
        restored = unpack_ladder(payload)
        dec = restored.decomposition
        assert dec.dtype_nbytes == 4
        assert dec.base.dtype == np.float32
        assert all(a.dtype == np.float32 for a in dec.augmentations)
        assert restored._stream_values.dtype == np.float32
        np.testing.assert_array_equal(
            np.asarray(restored._stream_values), np.asarray(ladder._stream_values)
        )
        assert restored.base_nbytes == ladder.base_nbytes
        assert restored.bytes_per_coefficient == ladder.bytes_per_coefficient
        np.testing.assert_allclose(
            restored.reconstruct(restored.num_buckets),
            ladder.reconstruct(ladder.num_buckets),
            rtol=1e-6,
        )

    def test_header_without_dtype_key_defaults_to_float64(self, payload):
        # Backward compat: payloads written before dtype_nbytes existed
        # (key absent from the header) unpack as float64.
        import json
        import struct

        prefix = struct.Struct("<4sHI")
        magic, version, hlen = prefix.unpack_from(payload, 0)
        header = json.loads(payload[prefix.size : prefix.size + hlen])
        assert header.pop("dtype_nbytes") == 8
        raw = json.dumps(header, separators=(",", ":")).encode()
        legacy = prefix.pack(magic, version, len(raw)) + raw + payload[prefix.size + hlen :]
        restored = unpack_ladder(legacy)
        assert restored.decomposition.base.dtype == np.float64
        assert restored.decomposition.dtype_nbytes == 8
