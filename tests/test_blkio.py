"""Tests for repro.storage.blkio — proportional-share rate computation."""

import builtins
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.blkio import (
    MAX_FLOOR_UTILISATION,
    StreamDemand,
    compute_rates,
    solve_rates_arrays,
)
from tests.blkio_oracle import compute_rates_reference
from tests.float_sums import left_to_right, neumaier_sum

PEAK = 200e6


def d(key, weight, peak=PEAK, cap=math.inf, floor=0.0):
    return StreamDemand(key=key, weight=weight, peak_rate=peak, cap=cap, floor=floor)


class TestProportionalSharing:
    def test_empty(self):
        assert compute_rates([]) == {}

    def test_single_stream_gets_peak(self):
        rates = compute_rates([d(0, 100)])
        assert rates[0] == pytest.approx(PEAK)

    def test_equal_weights_split_evenly(self):
        rates = compute_rates([d(0, 100), d(1, 100)])
        assert rates[0] == pytest.approx(PEAK / 2)
        assert rates[1] == pytest.approx(PEAK / 2)

    def test_paper_example_133_67(self):
        """The paper's arithmetic: 200 MB/s, weights 200 vs 100 -> 133/67."""
        rates = compute_rates([d(0, 200), d(1, 100)])
        assert rates[0] == pytest.approx(PEAK * 2 / 3)
        assert rates[1] == pytest.approx(PEAK / 3)

    def test_three_equal_weights(self):
        """Adding a third equal-weight stream drops everyone to 1/3."""
        rates = compute_rates([d(i, 100) for i in range(3)])
        for i in range(3):
            assert rates[i] == pytest.approx(PEAK / 3)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            compute_rates([d(0, 100), d(0, 100)])


class TestThrottleCaps:
    def test_cap_limits_stream(self):
        rates = compute_rates([d(0, 100, cap=10e6)])
        assert rates[0] == pytest.approx(10e6)

    def test_surplus_redistributed(self):
        """A capped stream's surplus goes to the uncapped one."""
        rates = compute_rates([d(0, 100, cap=20e6), d(1, 100)])
        assert rates[0] == pytest.approx(20e6)
        assert rates[1] == pytest.approx(PEAK - 20e6)

    def test_all_capped_leaves_capacity_unused(self):
        rates = compute_rates([d(0, 100, cap=30e6), d(1, 100, cap=40e6)])
        assert rates[0] == pytest.approx(30e6)
        assert rates[1] == pytest.approx(40e6)

    def test_mixed_direction_peaks(self):
        """Streams with different peaks share normalised utilisation."""
        rates = compute_rates([d(0, 100, peak=200e6), d(1, 100, peak=100e6)])
        # Equal weights -> equal utilisation halves -> 100 and 50 MB/s.
        assert rates[0] == pytest.approx(100e6)
        assert rates[1] == pytest.approx(50e6)


class TestFloors:
    def test_floor_guaranteed_under_pressure(self):
        """A huge competing weight cannot squeeze a floored stream below
        its floor."""
        rates = compute_rates([d(0, 100, floor=20e6), d(1, 10_000)])
        assert rates[0] >= 20e6 - 1e-6

    def test_floor_plus_share(self):
        rates = compute_rates([d(0, 100, floor=20e6), d(1, 100)])
        remaining = PEAK - 20e6
        assert rates[0] == pytest.approx(20e6 + remaining / 2)
        assert rates[1] == pytest.approx(remaining / 2)

    def test_oversubscribed_floors_scaled(self):
        rates = compute_rates([d(0, 100, floor=150e6), d(1, 100, floor=150e6)])
        assert rates[0] == pytest.approx(PEAK / 2)
        assert rates[1] == pytest.approx(PEAK / 2)

    def test_floor_capped_by_throttle(self):
        rates = compute_rates([d(0, 100, cap=10e6, floor=50e6)])
        assert rates[0] == pytest.approx(10e6)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight": 0},
            {"weight": -1},
            {"weight": math.inf},
            {"peak_rate": 0},
            {"cap": 0},
            {"floor": -1},
            {"floor": math.nan},
        ],
    )
    def test_bad_demand(self, kwargs):
        base = {"key": 0, "weight": 100, "peak_rate": PEAK}
        base.update(kwargs)
        with pytest.raises(ValueError):
            StreamDemand(**base)


class TestConservation:
    @given(
        weights=st.lists(st.floats(100, 1000), min_size=1, max_size=8),
        caps=st.lists(st.one_of(st.just(math.inf), st.floats(1e6, 3e8)), min_size=8, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_never_oversubscribed(self, weights, caps):
        demands = [d(i, w, cap=caps[i]) for i, w in enumerate(weights)]
        rates = compute_rates(demands)
        # Utilisation must not exceed 1 and caps must be honoured.
        util = sum(rates[dm.key] / dm.peak_rate for dm in demands)
        assert util <= 1.0 + 1e-9
        for dm in demands:
            assert rates[dm.key] <= min(dm.cap, dm.peak_rate) + 1e-6

    @given(weights=st.lists(st.floats(100, 1000), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_property_work_conserving_without_caps(self, weights):
        demands = [d(i, w) for i, w in enumerate(weights)]
        rates = compute_rates(demands)
        util = sum(rates[dm.key] / dm.peak_rate for dm in demands)
        assert util == pytest.approx(1.0)

    @given(w_hi=st.floats(200, 1000), w_lo=st.floats(100, 199))
    @settings(max_examples=40, deadline=None)
    def test_property_weight_monotone(self, w_hi, w_lo):
        rates = compute_rates([d(0, w_hi), d(1, w_lo)])
        assert rates[0] >= rates[1]


class TestNaNCap:
    def test_nan_cap_rejected(self):
        """Regression: ``nan <= 0`` is False, so a NaN cap used to pass
        validation and poison every computed rate with NaN."""
        with pytest.raises(ValueError):
            d(0, 100, cap=math.nan)

    def test_inf_cap_still_means_unthrottled(self):
        assert compute_rates([d(0, 100, cap=math.inf)])[0] == pytest.approx(PEAK)


class TestAllocationInvariants:
    """Satellite invariants: the properties every allocation must hold."""

    def test_paper_weight_raise_shifts_split(self):
        """200 MB/s device: equal weights give 100/100; raising one
        weight 100 -> 200 shifts the split to 133/67 (paper Section II)."""
        before = compute_rates([d(0, 100), d(1, 100)])
        assert before[0] == pytest.approx(100e6)
        assert before[1] == pytest.approx(100e6)
        after = compute_rates([d(0, 200), d(1, 100)])
        assert after[0] == pytest.approx(PEAK * 2 / 3)  # ~133 MB/s
        assert after[1] == pytest.approx(PEAK * 1 / 3)  # ~67 MB/s

    @given(weights=st.lists(st.floats(100, 1000), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_property_uncapped_split_is_weight_proportional(self, weights):
        demands = [d(i, w) for i, w in enumerate(weights)]
        rates = compute_rates(demands)
        total_w = sum(weights)
        for dm in demands:
            assert rates[dm.key] == pytest.approx(PEAK * dm.weight / total_w)

    @given(
        floors=st.lists(st.floats(0, 4e8), min_size=1, max_size=6),
        reader_weight=st.floats(100, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_floors_bounded_and_utilisation_conserved(
        self, floors, reader_weight
    ):
        """However oversubscribed the floors, total utilisation stays <= 1
        and the floor reservation never exceeds MAX_FLOOR_UTILISATION —
        an unfloored reader always keeps its weight share of the rest."""
        demands = [d(i, 100, floor=f) for i, f in enumerate(floors)]
        reader = d(len(floors), reader_weight)
        demands.append(reader)
        rates = compute_rates(demands)
        util = sum(rates[dm.key] / dm.peak_rate for dm in demands)
        assert util <= 1.0 + 1e-9
        total_w = 100 * len(floors) + reader_weight
        reader_share = (1.0 - MAX_FLOOR_UTILISATION) * PEAK * reader_weight / total_w
        assert rates[reader.key] >= reader_share - 1e-6


_demand_strategy = st.builds(
    dict,
    weight=st.floats(1, 1000),
    peak=st.sampled_from([70e6, 140e6, 200e6, 500e6]),
    cap=st.one_of(st.just(math.inf), st.floats(1e6, 3e8)),
    floor=st.one_of(st.just(0.0), st.floats(0.0, 2e8)),
)


def _assert_python_floats(rates):
    assert all(type(r) is float for r in rates.values())


class TestSolverParity:
    """The solver must be *bit-identical* to the reference.

    The pinned scenario fingerprints in ``tests/test_engine.py`` depend on
    every allocated rate matching the pre-optimisation dict solver
    (``tests/blkio_oracle.py``) to the last ulp — ``==``, not ``approx``.
    Up to ``_ARRAY_SCALAR_MAX`` (8) streams the solver runs a Python
    loop, above it the numpy waterfill; both sides are compared.
    """

    @given(specs=st.lists(_demand_strategy, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_property_bit_identical_to_reference(self, specs):
        demands = [
            d(i, s["weight"], peak=s["peak"], cap=s["cap"], floor=s["floor"])
            for i, s in enumerate(specs)
        ]
        rates = compute_rates(demands)
        assert rates == compute_rates_reference(demands)
        _assert_python_floats(rates)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 40])
    def test_scalar_fast_paths_match_reference(self, n):
        """Both sides of the solver's loop/numpy split (8 | 9)."""
        demands = [d(i, 100 + 50 * i, cap=(50e6 if i == 0 else math.inf)) for i in range(n)]
        rates = compute_rates(demands)
        assert rates == compute_rates_reference(demands)
        _assert_python_floats(rates)

    def test_solve_rates_positional_form_matches_wrapper(self):
        """The array entry point returns the rates in row order."""
        demands = [d(0, 200, floor=20e6), d(1, 100, cap=60e6), d(2, 300)]
        rates = solve_rates_arrays(
            np.array([dm.weight for dm in demands]),
            np.array([dm.peak_rate for dm in demands]),
            np.array([dm.cap for dm in demands]),
            np.array([dm.floor for dm in demands]),
        )
        by_key = compute_rates(demands)
        assert list(rates) == [by_key[dm.key] for dm in demands]

    def test_empty_solve(self):
        empty = np.zeros(0)
        assert len(solve_rates_arrays(empty, empty, empty, empty)) == 0


class TestSumOrder:
    """Solver and oracle add left to right whatever ``sum()`` does.

    Python 3.12 compensates ``sum()`` of floats, which moves the last bit
    of e.g. ten 0.1s.  With ``builtins.sum`` swapped for such a sum, both
    solver regimes (loop up to 8 streams, numpy above) and the oracle
    must return the rates they return without the swap.
    """

    #: (weight, floor share) of seven streams whose different floor sums
    #: reach the rates.
    LOOP_FLOORS = [
        (100, 0.07), (100, 0.05), (300, 0.1), (100, 0.03), (300, 0.02), (100, 0.03), (200, 0.07)
    ]
    #: name -> (demands, the summed field whose two sums differ).
    CASES = {
        "loop-floors": (
            [d(i, w, floor=u * PEAK) for i, (w, u) in enumerate(LOOP_FLOORS)],
            "floor",
        ),
        "loop-weights": ([d(i, 0.1) for i in range(8)], "weight"),
        "numpy-floors": ([d(i, 100, floor=0.09 * PEAK) for i in range(10)], "floor"),
        "numpy-weights": ([d(i, 0.1) for i in range(10)], "weight"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rates_ignore_a_compensated_sum(self, name, monkeypatch):
        demands, field = self.CASES[name]
        if field == "floor":
            terms = [dm.floor / dm.peak_rate for dm in demands]
        else:
            terms = [dm.weight for dm in demands]
        assert neumaier_sum(terms) != left_to_right(terms)
        before = compute_rates(demands), compute_rates_reference(demands)
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        after = compute_rates(demands), compute_rates_reference(demands)
        assert after == before
