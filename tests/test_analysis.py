import bisect
import csv
import io
import json
import math
from itertools import accumulate, permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isacsim import (
    C_LIGHT,
    OMNI,
    AntennaModel,
    Cir,
    GeometricScatterer,
    PadpPeak,
    ReconstructionScene,
    ScanGrid,
    background_monostatic,
    classify_bounce,
    delay_grid,
    extract_paths,
    identify_shared,
    padp,
    power_proportion,
    sharing_degree,
    subtract_background,
    turntable_scan,
)
from isacsim.analysis import (
    _AROUND,
    _BEFORE,
    BounceResult,
    _deg_apart,
    _max3x3,
    locate_bistatic,
    locate_monostatic,
    write_padp_csv,
    write_paths_json,
)


def path(delay, amp, az_deg=0.0):
    return delay, amp, az_deg


def cir_of(paths):
    """A Cir of ``path`` rows, each departing and arriving at its azimuth
    in the horizontal plane."""
    delay, amp, az_deg = zip(*paths)
    az = [math.radians(a) for a in az_deg]
    return Cir.from_columns(delay, amp, aod_az=az, aoa_az=az)


def pdp(cir, delay_bins):
    """The power delay profile: an omni antenna's scan at one angle."""
    return turntable_scan(cir, OMNI, [0.0], delay_bins).power[0]


class TestPdp:
    def test_single_path_single_bin(self):
        cir = cir_of([path(10.5e-9, 1.0)])
        bins = delay_grid(100e-9, 1e-9)
        out = pdp(cir, bins)
        assert out[10] == pytest.approx(1.0)
        assert np.count_nonzero(out) == 1

    def test_same_bin_powers_add(self):
        cir = cir_of([path(10.2e-9, 1.0), path(10.7e-9, 1.0j)])
        out = pdp(cir, delay_grid(100e-9, 1e-9))
        # non-coherent binning: 1 + 1, not |1 + j|^2
        assert out[10] == pytest.approx(2.0)

    def test_power_conservation(self):
        rng = np.random.default_rng(3)
        paths = tuple(path(rng.uniform(0, 99e-9), complex(rng.normal(), rng.normal()))
                      for _ in range(200))
        cir = cir_of(paths)
        out = pdp(cir, delay_grid(100e-9, 2.3e-9))
        assert out.sum() == pytest.approx(cir.total_power(), rel=1e-12)

    def test_out_of_grid_delay_rejected(self):
        cir = cir_of([path(150e-9, 1.0)])
        with pytest.raises(ValueError):
            pdp(cir, delay_grid(100e-9, 1e-9))

    def test_weak_bin_after_strong_bin_keeps_its_power(self):
        weak = 1e-16
        cir = cir_of([path(10.5e-9, 1.0), path(20.5e-9, weak)])
        out = pdp(cir, delay_grid(100e-9, 1e-9))
        assert out[10] == 1.0
        assert out[20] == abs(weak) ** 2
        assert out[20] == pytest.approx(1e-32, rel=1e-15)

    def test_delay_on_last_edge_in_last_bin(self):
        bins = delay_grid(100e-9, 1e-9)
        cir = cir_of([path(bins[-1], 1.0), path(bins[3], 0.5)])
        out = pdp(cir, bins)
        assert out[-1] == 1.0
        assert out[3] == 0.25  # an interior edge opens the bin above it
        assert np.count_nonzero(out) == 2


class TestPadp:
    def _grid(self, cirs, angles=None):
        angles = angles if angles is not None else np.arange(0.0, 360.0, 5.0)[: len(cirs)]
        bins = delay_grid(200e-9, 2e-9)
        return ScanGrid(angles, np.vstack([pdp(c, bins) for c in cirs]), bins)

    def test_identical_cirs_equal_rows(self):
        cir = cir_of([path(10e-9, 1.0), path(50e-9, 0.5)])
        grid = self._grid([cir] * 8)
        arr = padp(grid)
        for row in arr:
            np.testing.assert_allclose(row, arr[0])

    def test_conservation_over_grid(self):
        rng = np.random.default_rng(5)
        cirs = [cir_of(path(rng.uniform(0, 190e-9), complex(rng.normal(), rng.normal()))
                       for _ in range(17)) for _ in range(12)]
        grid = self._grid(cirs)
        arr = padp(grid)
        assert arr.sum() == pytest.approx(sum(c.total_power() for c in cirs), rel=1e-12)

    def test_four_reflector_scene_shows_four_peaks(self):
        # four distinct multipath signals at distinct angle/delay cells,
        # visible through a rotating horn
        specs = [(40.0, 20e-9), (120.0, 55e-9), (200.0, 90e-9), (310.0, 140e-9)]
        cir = cir_of(path(d, 1.0, az_deg=az) for az, d in specs)
        horn = AntennaModel(kind="horn", hpbw_deg=15.0, peak_gain_db=15.0)
        grid = turntable_scan(cir, horn, np.arange(0.0, 360.0, 5.0), delay_grid(200e-9, 5e-9))
        peaks = extract_paths(padp(grid), grid.angles_deg, grid.delay_bins,
                              peak_threshold_db=20.0)
        assert len(peaks) == 4
        got = sorted((p.angle_deg, p.delay_s) for p in peaks)
        want = sorted(specs)
        for (ga, gd), (wa, wd) in zip(got, want):
            assert ga == wa
            assert abs(gd - wd) <= 5e-9  # within one delay bin


# steps around the 1e-9 degree tolerance, and ones that are not steps at all
_STEPS = [5.0, 5.0 + 1e-9, 5.0 - 1e-9, 5.0 + 2e-9, 1e-9, 2e-9, 1 / 3, 0.0, -1.0,
          math.inf, -math.inf, math.nan, 1e308]


class TestScanGrid:
    @settings(max_examples=300, deadline=None)
    @given(angles=st.one_of(
        st.lists(st.floats(), min_size=1, max_size=5),
        st.builds(lambda start, steps: list(accumulate([start, *steps])),
                  st.sampled_from([0.0, -90.0, 0.1, 1e6, -math.inf, math.inf, math.nan]),
                  st.lists(st.sampled_from(_STEPS), max_size=4))))
    @example(angles=[-math.inf, 0.0])  # a non-finite angle
    @example(angles=[-1e308, 1e308])  # finite angles, a step past the largest float
    def test_uniform_step_rule_is_allclose(self, angles):
        angles = np.array(angles)
        # finite angles and steps, then np.allclose's rule
        with np.errstate(all="ignore"):
            steps = np.diff(angles)
            want = bool(np.isfinite(angles).all() and np.isfinite(steps).all()) and (
                len(angles) == 1 or bool(not np.any(steps <= 0) and np.allclose(
                    steps, steps[0], rtol=0, atol=1e-9)))
        # the check warns of nothing, even where np.diff overflows
        with np.errstate(all="raise"):
            try:
                ScanGrid(angles, np.zeros((len(angles), 1)), [0.0, 1.0])
                got = True
            except ValueError as exc:
                assert "finite uniform step" in str(exc)
                got = False
        assert got == want


class TestTurntableScan:
    HORN = AntennaModel(kind="horn", hpbw_deg=10.31, peak_gain_db=25.0)

    def test_omni_rows_identical(self):
        cir = cir_of([path(10e-9, 1.0, az_deg=77.0)])
        grid = turntable_scan(cir, OMNI, np.arange(0.0, 360.0, 5.0), delay_grid(50e-9, 1e-9))
        arr = padp(grid)
        for row in arr:
            np.testing.assert_allclose(row, arr[0])

    def test_monostatic_hall_peaks_at_wall_azimuths(self):
        # four hall walls seen by a rotating horn from the room center:
        # the PADP ridge tracks the wall directions
        walls = [
            GeometricScatterer([8.0, 0.0, 0.0], 0.0, "east"),
            GeometricScatterer([0.0, 6.0, 0.0], 0.0, "north"),
            GeometricScatterer([-8.0, 0.0, 0.0], 0.0, "west"),
            GeometricScatterer([0.0, -6.0, 0.0], 0.0, "south"),
        ]
        cir = background_monostatic(walls, [0, 0, 0], wl=0.0107)
        horn = AntennaModel(kind="horn", hpbw_deg=10.31, peak_gain_db=25.0)
        grid = turntable_scan(cir, horn, np.arange(0.0, 360.0, 5.0), delay_grid(80e-9, 2e-9))
        peaks = extract_paths(padp(grid), grid.angles_deg, grid.delay_bins,
                              peak_threshold_db=10.0)
        assert sorted(p.angle_deg for p in peaks) == [0.0, 90.0, 180.0, 270.0]

    @staticmethod
    def _random_cir(rng, n, bins):
        # half the delays sit exactly on bin edges, the last edge included
        on_edge = bins[rng.integers(0, len(bins), n)]
        delays = np.where(rng.random(n) < 0.5, on_edge, rng.uniform(bins[0], bins[-1], n))
        delays[0] = bins[-1]
        amp, az, el = zip(*((complex(rng.normal(), rng.normal()), rng.uniform(0.0, 2 * math.pi),
                             rng.uniform(-1.4, 1.4)) for _ in delays))
        return Cir.from_columns(delays, amp, aoa_az=az, aoa_el=el)

    @staticmethod
    def _reference(cir, antenna, angles, bins):
        """Per angle, per path: re-aim the antenna and weight each amplitude.

        Returns the PADP and, per angle, sum(|amp|^2 x power gain)."""
        ref = np.zeros((len(angles), len(bins) - 1))
        row_sums = np.zeros(len(angles))
        for i, ang in enumerate(angles):
            aimed = AntennaModel(antenna.kind, antenna.hpbw_deg, antenna.peak_gain_db,
                                 (math.radians(ang), 0.0))
            for delay, amp, az, el in zip(cir.delay.tolist(), cir.amp.tolist(),
                                          cir.aoa_az.tolist(), cir.aoa_el.tolist()):
                j = min(bisect.bisect_right(bins, delay) - 1, len(bins) - 2)
                # the single-polarized receive field (g, 0)
                field = np.array([aimed.field_gain([aimed.boresight], [[az, el]])[0, 0], 0.0])
                w = abs(amp * complex(field[0]))
                ref[i, j] += w * w
                row_sums[i] += abs(amp) ** 2 * float(np.sum(np.abs(field) ** 2))
        return ref, row_sums

    @staticmethod
    def _shared_cir(rng, n, bins):
        """n paths over four arrival directions and four delay bins, so
        that several paths share each (direction, bin) cell. Two of the
        directions differ only in the sign of a zero elevation."""
        dirs = np.array([(0.3, -0.0), (0.3, 0.0), (2.0, 0.4), (5.5, -1.2)])
        az, el = dirs[rng.integers(0, len(dirs), n)].T
        width = bins[1] - bins[0]
        delays = bins[rng.integers(0, 4, n)] + np.where(rng.random(n) < 0.5, 0.0,
                                                        rng.uniform(0.0, width, n))
        delays[0] = bins[-1]
        amp = rng.normal(size=n) + 1j * rng.normal(size=n)
        return Cir.from_columns(delays, amp, aoa_az=az, aoa_el=el)

    def _assert_matches_reference(self, cir, antenna, angles, bins):
        got = padp(turntable_scan(cir, antenna, angles, bins))
        ref, row_sums = self._reference(cir, antenna, angles, bins)
        np.testing.assert_array_equal(got == 0.0, ref == 0.0)
        nz = ref != 0.0
        np.testing.assert_allclose(got[nz], ref[nz], rtol=1e-12, atol=0.0)
        # powers below about 1e-300 are near or in the subnormal range,
        # where |amp|^2 x gain and |amp x field|^2 round differently
        np.testing.assert_allclose(got.sum(axis=1), row_sums, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("antenna", [
        OMNI, AntennaModel(kind="horn", hpbw_deg=10.31, peak_gain_db=25.0)],
        ids=["omni", "horn"])
    @pytest.mark.parametrize("step", [5.0, 60.0])
    def test_matches_per_path_reference(self, antenna, step):
        rng = np.random.default_rng(int(step) + len(antenna.kind))
        bins = delay_grid(200e-9, 2.5e-9)
        angles = np.arange(0.0, 360.0, step)
        for n in (1, 300, rng.integers(1, 301)):
            self._assert_matches_reference(self._random_cir(rng, int(n), bins),
                                           antenna, angles, bins)

    @pytest.mark.parametrize("antenna", [OMNI, HORN], ids=["omni", "horn"])
    @pytest.mark.parametrize("n", [2, 40, 500])
    def test_shared_cells_match_per_path_reference(self, antenna, n):
        rng = np.random.default_rng(n + len(antenna.kind))
        bins = delay_grid(20e-9, 2.5e-9)
        cir = self._shared_cir(rng, n, bins)
        if n > 2:  # the cells are shared, and both signed zeros occur
            cells = {(az, el, min(bisect.bisect_right(bins, d) - 1, len(bins) - 2))
                     for d, az, el in zip(cir.delay, cir.aoa_az, cir.aoa_el)}
            assert len(cells) <= 20 < n
            assert np.signbit(cir.aoa_el[cir.aoa_el == 0.0]).any()
            assert not np.signbit(cir.aoa_el[cir.aoa_el == 0.0]).all()
        self._assert_matches_reference(cir, antenna, np.arange(0.0, 360.0, 5.0), bins)

    def test_signed_zero_elevations_share_a_direction(self):
        bins = delay_grid(20e-9, 2.5e-9)
        angles = np.arange(0.0, 360.0, 5.0)
        amp = [0.3, 0.7j, 1.1]
        split = Cir.from_columns([5e-9] * 3, amp, aoa_az=0.3, aoa_el=[-0.0, 0.0, -0.0])
        joined = Cir.from_columns([5e-9] * 3, amp, aoa_az=0.3, aoa_el=0.0)
        np.testing.assert_array_equal(turntable_scan(split, self.HORN, angles, bins).power,
                                      turntable_scan(joined, self.HORN, angles, bins).power)

    @pytest.mark.parametrize("antenna", [OMNI, HORN], ids=["omni", "horn"])
    def test_empty_cir_gives_zero_padp(self, antenna):
        grid = turntable_scan(Cir.from_columns([], []), antenna, np.arange(0.0, 360.0, 5.0),
                              delay_grid(50e-9, 1e-9))
        assert grid.power.shape == (72, 50)
        assert not grid.power.any()

    @pytest.mark.parametrize("delay", [5e-9, 60.000001e-9], ids=["before", "after"])
    def test_delay_off_the_grid_rejected(self, delay):
        bins = 10e-9 + delay_grid(50e-9, 1e-9)
        cir = Cir.from_columns([20e-9] * 5 + [delay], [1.0] * 6, aoa_az=0.3)
        with pytest.raises(ValueError, match="outside the delay grid"):
            turntable_scan(cir, OMNI, np.arange(0.0, 360.0, 5.0), bins)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           antenna=st.sampled_from([OMNI, HORN,
                                    AntennaModel(kind="horn", hpbw_deg=60.0, peak_gain_db=8.0)]),
           step=st.sampled_from([5.0, 30.0, 120.0]))
    def test_rows_conserve_power(self, data, antenna, step):
        bins = delay_grid(20e-9, 2.5e-9)
        dirs = data.draw(st.lists(
            st.tuples(st.floats(0.0, 6.28), st.sampled_from([-0.0, 0.0, 0.4, -1.2, 1.5])),
            min_size=1, max_size=5))
        rows = data.draw(st.lists(st.tuples(
            st.integers(0, len(dirs) - 1),
            st.sampled_from(bins.tolist()) | st.floats(bins[0], bins[-1]),
            st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)),
            max_size=60))
        d = [dirs[k] for k, _, _ in rows]
        cir = Cir.from_columns([t for _, t, _ in rows], [a for _, _, a in rows],
                               aoa_az=[a for a, _ in d], aoa_el=[e for _, e in d])
        angles = np.arange(0.0, 360.0, step)
        got = turntable_scan(cir, antenna, angles, bins).power
        boresight = np.column_stack([np.radians(angles), np.zeros(len(angles))])
        gain = antenna.field_gain(boresight, np.column_stack([cir.aoa_az, cir.aoa_el]))
        want = (gain ** 2 * np.abs(cir.amp) ** 2).sum(axis=1)
        np.testing.assert_allclose(got.sum(axis=1), want, rtol=1e-12, atol=1e-300)


class TestDegApart:
    @pytest.mark.parametrize("a, b, want", [
        (0.0, 0.0, 0.0), (359.0, 1.0, 2.0), (1.0, 359.0, 2.0), (0.0, 360.0, 0.0),
        (10.0, 190.0, 180.0), (-5.0, 5.0, 10.0), (723.0, 0.0, 3.0)])
    def test_wraps_at_0_and_360(self, a, b, want):
        assert _deg_apart(a, b) == pytest.approx(want, rel=0.0, abs=1e-12)

    @given(a=st.floats(-1e4, 1e4), b=st.floats(-1e4, 1e4))
    def test_symmetric_and_at_most_180(self, a, b):
        d = _deg_apart(a, b)
        assert d == _deg_apart(b, a)
        assert 0.0 <= d <= 180.0


class TestExtractPaths:
    def _padp_with(self, cells, shape=(72, 100), floor=0.0):
        arr = np.full(shape, floor)
        for (i, j), v in cells.items():
            arr[i, j] = v
        return arr

    def test_single_peak(self):
        arr = self._padp_with({(10, 20): 1.0})
        peaks = extract_paths(arr, np.arange(0, 360, 5.0), delay_grid(100e-9, 1e-9), 30.0)
        assert len(peaks) == 1
        assert peaks[0].angle_deg == 50.0
        assert peaks[0].delay_s == pytest.approx(20.5e-9)

    def test_threshold_semantics(self):
        arr = self._padp_with({(10, 20): 1.0, (40, 60): 1e-3})  # 30 dB apart
        peaks = extract_paths(arr, np.arange(0, 360, 5.0), delay_grid(100e-9, 1e-9), 25.0)
        assert len(peaks) == 1
        assert peaks[0].power == 1.0

    def test_planted_peaks_recovered_in_noise(self):
        rng = np.random.default_rng(9)
        noise = rng.uniform(0.5e-4, 1e-4, (72, 100))  # 40 dB down
        planted = {(5, 10): 1.0, (20, 40): 0.8, (50, 70): 0.5, (65, 15): 0.9}
        arr = noise.copy()
        for (i, j), v in planted.items():
            arr[i, j] = v
        peaks = extract_paths(arr, np.arange(0, 360, 5.0), delay_grid(100e-9, 1e-9),
                              peak_threshold_db=20.0)
        cells = {(int(p.angle_deg // 5), int(p.delay_s // 1e-9)) for p in peaks}
        assert cells == set(planted)

    def test_empty_padp_rejected(self):
        with pytest.raises(ValueError):
            extract_paths(np.zeros((4, 4)), np.arange(4.0), delay_grid(4e-9, 1e-9), 20.0)

    @pytest.mark.parametrize("rows, cols", [
        (slice(None), slice(20, 21)),  # a whole column: an omni scan's delay peak
        (slice(10, 11), slice(20, 30)),  # a run along one row
        (slice(3, 7), slice(40, 43)),  # a rectangle
        (slice(0, 1), slice(0, 1)),  # one corner cell
    ])
    def test_plateau_gives_its_first_cell(self, rows, cols):
        arr = self._padp_with({(60, 80): 0.5})
        arr[rows, cols] = 1.0
        angles = np.arange(0, 360, 5.0)
        peaks = extract_paths(arr, angles, delay_grid(100e-9, 1e-9), 30.0)
        first = tuple(np.argwhere(arr == 1.0)[0])
        assert [(p.angle_deg, p.power) for p in peaks] == [(angles[first[0]], 1.0),
                                                            (300.0, 0.5)]
        assert peaks[0].delay_s == pytest.approx((first[1] + 0.5) * 1e-9)

    def test_equal_cells_apart_are_two_peaks(self):
        # equal cells that do not touch are not one plateau
        arr = self._padp_with({(10, 20): 1.0, (10, 22): 1.0})
        peaks = extract_paths(arr, np.arange(0, 360, 5.0), delay_grid(100e-9, 1e-9), 30.0)
        assert sorted(round(p.delay_s * 1e9, 6) for p in peaks) == [20.5, 22.5]

    @pytest.mark.parametrize("az_deg", [
        357.5,  # 355 and 0 degrees see it equally: a plateau across the seam
        2.5,  # 355 degrees sees it 2.7 dB down, and is no peak
        0.0,
    ])
    def test_full_circle_scan_joins_its_seam(self, az_deg):
        horn = AntennaModel(kind="horn", hpbw_deg=15.0, peak_gain_db=15.0)
        cir = cir_of([path(22.5e-9, 1.0, az_deg=az_deg)])
        bins = delay_grid(100e-9, 5e-9)
        grid = turntable_scan(cir, horn, np.arange(0.0, 360.0, 5.0), bins)
        peaks = extract_paths(grid.power, grid.angles_deg, grid.delay_bins, 30.0)
        assert [(p.angle_deg, p.delay_s) for p in peaks] == [(0.0, 0.5 * (bins[4] + bins[5]))]

    @pytest.mark.parametrize("angles, want", [
        (np.arange(0.0, 180.0, 5.0), [0.0, 175.0]),  # a half circle: the edge rows are apart
        (np.arange(0.0, 360.0, 10.0), [0.0]),  # a full circle: they are neighbours
    ])
    def test_edge_rows_are_neighbours_only_on_a_full_circle(self, angles, want):
        arr = np.zeros((36, 100))
        arr[0, 20], arr[-1, 20] = 1.0, 0.5
        arr[-1, 60] = 0.25  # the last row keeps a peak that row 0 does not touch
        peaks = extract_paths(arr, angles, delay_grid(100e-9, 1e-9), 30.0)
        assert [p.angle_deg for p in peaks if p.power > 0.25] == want
        assert [(p.angle_deg, p.power) for p in peaks if p.power == 0.25] == [(angles[-1], 0.25)]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (17, 23)])
    def test_neighbourhood_max_matches_scipy(self, shape):
        from scipy.ndimage import maximum_filter

        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for arr in (rng.integers(0, 3, shape).astype(float),  # many ties
                    rng.uniform(0.0, 1.0, shape)):
            np.testing.assert_array_equal(
                _max3x3(arr), maximum_filter(arr, size=3, mode="nearest"))

    @settings(max_examples=150, deadline=None)
    @given(arr=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                          elements=st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 1.0, 3e5,
                                                    math.inf, -math.inf, math.nan])),
           ring=st.booleans())
    def test_neighbourhood_max_matches_padded_reference(self, arr, ring):
        def reference(offsets):
            # the padded stack _max3x3 replaced
            rows, cols = arr.shape
            padded = np.pad(arr, 1, constant_values=-np.inf)
            if ring:
                padded[0, 1:-1], padded[-1, 1:-1] = arr[-1], arr[0]
            return np.max([padded[i:i + rows, j:j + cols] for i, j in offsets], axis=0)

        for offsets in (_AROUND, _BEFORE, *(((i, j),) for i, j in _AROUND)):
            got = _max3x3(arr, offsets, ring=ring)
            np.testing.assert_array_equal(got, reference(offsets), err_msg=str(offsets))


class TestSubtractBackground:
    def _scan(self, paths, angles=None):
        cir = cir_of(paths)
        horn = AntennaModel(kind="horn", hpbw_deg=15.0, peak_gain_db=15.0)
        return turntable_scan(cir, horn, angles if angles is not None else
                              np.arange(0.0, 360.0, 5.0), delay_grid(200e-9, 5e-9))

    def test_identical_scans_empty(self):
        paths = [path(20e-9, 1.0, az_deg=40.0), path(90e-9, 0.3, az_deg=200.0)]
        out = subtract_background(self._scan(paths), self._scan(paths))
        assert out == []

    def test_added_peak_detected(self):
        bg = [path(20e-9, 1.0, az_deg=40.0)]
        tg = bg + [path(120e-9, 0.8, az_deg=250.0)]
        out = subtract_background(self._scan(tg), self._scan(bg))
        assert len(out) == 1
        assert out[0].angle_deg == 250.0

    def test_raised_peak_detected(self):
        # same angle/delay cell but ~10 dB stronger than the background
        bg = [path(20e-9, 1.0, az_deg=40.0), path(90e-9, 0.1, az_deg=200.0)]
        tg = [path(20e-9, 1.0, az_deg=40.0), path(90e-9, 0.1 * math.sqrt(10.0) * 1j,
                                                  az_deg=200.0)]
        out = subtract_background(self._scan(tg), self._scan(bg))
        assert len(out) == 1
        assert out[0].angle_deg == 200.0

    def test_background_peak_one_bin_away_is_not_the_reference(self):
        # the no-target cell under the target peak is empty, so the peak is
        # a target peak, however close the background's own peak lies
        bins = delay_grid(200e-9, 5e-9)
        tg = [path(7.5e-9, math.sqrt(2.0), az_deg=40.0)]
        bg = [path(12.5e-9, 1.0, az_deg=40.0)]
        with_target = self._scan(tg + bg)
        without_target = self._scan(bg)
        assert without_target.power[8, 1] == 0.0
        out = subtract_background(with_target, without_target)
        assert [(pk.angle_deg, pk.delay_s) for pk in out] == [(40.0, 0.5 * (bins[1] + bins[2]))]

    def test_empty_background_has_no_peaks(self):
        # a free-space scene: the no-target scan is all zeros
        tg = [path(20e-9, 1.0, az_deg=40.0), path(120e-9, 0.8, az_deg=250.0)]
        horn = AntennaModel(kind="horn", hpbw_deg=15.0, peak_gain_db=15.0)
        empty = turntable_scan(Cir.from_columns([], []), horn, np.arange(0.0, 360.0, 5.0),
                               delay_grid(200e-9, 5e-9))
        assert not np.any(empty.power)
        out = subtract_background(self._scan(tg), empty)
        assert sorted(pk.angle_deg for pk in out) == [40.0, 250.0]

    def test_grid_mismatch_rejected(self):
        a = self._scan([path(20e-9, 1.0, az_deg=40.0)])
        b = self._scan([path(20e-9, 1.0, az_deg=40.0)], angles=np.arange(0.0, 180.0, 5.0))
        with pytest.raises(ValueError):
            subtract_background(a, b)

    def test_delay_grids_compared_exactly(self):
        # 7 edges at 0.6 and at 1.2 GHz: each pair of edges is within
        # 1e-8 s, a tolerance larger than either whole grid
        angles = np.arange(0.0, 360.0, 5.0)
        power = np.ones((len(angles), 6))
        a = ScanGrid(angles, power, np.arange(7) / 0.6e9)
        b = ScanGrid(angles, power, np.arange(7) / 1.2e9)
        with pytest.raises(ValueError, match="different grids"):
            subtract_background(a, b)


def make_scene():
    """Indoor human-sensing layout: 10 m Tx-Rx, target near the middle,
    a south wall and a distant west wall as reflectors."""
    return ReconstructionScene(
        tx=[0.0, 0.0, 0.0],
        rx=[10.0, 0.0, 0.0],
        target=[5.0, 0.7089, 0.0],
        reflectors=(
            GeometricScatterer([7.5, -1.0, 0.0], label="south_wall"),
            GeometricScatterer([-7.12, 0.71, 0.0], label="west_wall"),
        ),
    )


def route_len(*pts):
    pts = np.asarray(pts, dtype=float)
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def arrival_az_deg(last, rx):
    v = np.asarray(last, float) - np.asarray(rx, float)
    return math.degrees(math.atan2(v[1], v[0])) % 360.0


def classify_every_route(peak, tx, rx, target, reflectors, delay_tol, angle_tol_deg):
    """classify_bounce as it was: every route walked again for each peak.
    ``reflectors`` are (label, position) pairs."""
    refl = [(label or f"R{i}", p) for i, (label, p) in enumerate(reflectors)]
    routes = [(0, "Tx>ST>Rx", [tx, target, rx])]
    for name, p in refl:
        routes += [(1, f"Tx>ST>{name}>Rx", [tx, target, p, rx]),
                   (1, f"Tx>{name}>ST>Rx", [tx, p, target, rx])]
    for (na, pa), (nb, pb) in permutations(refl, 2):
        routes += [(2, f"Tx>ST>{na}>{nb}>Rx", [tx, target, pa, pb, rx]),
                   (2, f"Tx>{na}>ST>{nb}>Rx", [tx, pa, target, pb, rx]),
                   (2, f"Tx>{na}>{nb}>ST>Rx", [tx, pa, pb, target, rx])]
    best = None
    for order, label, waypoints in routes:
        length = route_len(*waypoints)
        residual = abs(length / C_LIGHT - peak.delay_s)
        if residual > delay_tol:
            continue
        if np.linalg.norm(np.asarray(waypoints[-2], float) - np.asarray(rx, float)) == 0.0:
            continue
        if _deg_apart(arrival_az_deg(waypoints[-2], rx), peak.angle_deg) > angle_tol_deg:
            continue
        if best is None or (order, residual) < (best.order, best.residual_s):
            best = BounceResult(order, label, length, residual)
    return best, routes


_POSITION = st.lists(st.one_of(st.sampled_from([-7.12, -1.0, 0.0, 0.71, 1.4, 5.0, 10.0]),
                               st.floats(-20.0, 20.0)), min_size=3, max_size=3)


class TestClassifyBounce:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_a_walk_over_every_route(self, data):
        tx, rx, target = (data.draw(_POSITION) for _ in range(3))
        reflectors = [(data.draw(st.sampled_from(["", "", "wall", "pillar"])),
                       data.draw(st.one_of(_POSITION, st.just(list(rx)))))  # at the Rx too
                      for _ in range(data.draw(st.integers(0, 3)))]
        given_arrays = [np.array(v, dtype=float) for v in (tx, rx, target)]
        scene = ReconstructionScene(
            *given_arrays,
            reflectors=tuple(GeometricScatterer(np.array(p, dtype=float), label=label)
                             for label, p in reflectors))
        for v in (scene.tx, scene.rx, scene.target, *(r.position for r in scene.reflectors)):
            assert not v.flags.writeable
        for v in given_arrays:
            v += 1.0  # the scene holds copies: its routes stay those it was given

        def check(peak):
            want, routes = classify_every_route(peak, tx, rx, target, reflectors, 1e-9, 2.5)
            assert classify_bounce(peak, scene, delay_tol=1e-9, angle_tol_deg=2.5) == want
            return routes

        routes = check(PadpPeak(data.draw(st.floats(0.0, 360.0)),
                                data.draw(st.floats(0.0, 200e-9)), 1.0))
        for _, _, waypoints in routes:  # one peak on or just off each route
            az = arrival_az_deg(waypoints[-2], rx)
            az += data.draw(st.sampled_from([0.0, 0.0, 2.4, -2.4, 2.6, 180.0]))
            delay = route_len(*waypoints) / C_LIGHT
            delay += data.draw(st.sampled_from([0.0, 0.0, 0.9e-9, -0.9e-9, 1.1e-9]))
            check(PadpPeak(az, max(delay, 0.0), 1.0))

    def test_direct_route_order_zero(self):
        sc = make_scene()
        length = route_len(sc.tx, sc.target, sc.rx)
        pk = PadpPeak(arrival_az_deg(sc.target, sc.rx), length / C_LIGHT, 1.0)
        res = classify_bounce(pk, sc, delay_tol=1e-9, angle_tol_deg=2.5)
        assert res is not None and res.order == 0
        assert res.length_m == pytest.approx(10.1, abs=0.01)

    def test_south_wall_first_order(self):
        sc = make_scene()
        south = sc.reflectors[0].position
        length = route_len(sc.tx, sc.target, south, sc.rx)
        assert length == pytest.approx(10.8, abs=0.05)
        pk = PadpPeak(arrival_az_deg(south, sc.rx), length / C_LIGHT, 1.0)
        res = classify_bounce(pk, sc, delay_tol=1e-9, angle_tol_deg=2.5)
        assert res is not None and res.order == 1
        assert "south_wall" in res.route

    def test_west_wall_first_order_34p3m(self):
        sc = make_scene()
        west = sc.reflectors[1].position
        length = route_len(sc.tx, sc.target, west, sc.rx)
        assert length == pytest.approx(34.3, abs=0.05)
        pk = PadpPeak(arrival_az_deg(west, sc.rx), length / C_LIGHT, 1.0)
        res = classify_bounce(pk, sc, delay_tol=1e-9, angle_tol_deg=2.5)
        assert res is not None and res.order == 1
        assert "west_wall" in res.route

    def test_second_order_route(self):
        sc = make_scene()
        south, west = (r.position for r in sc.reflectors)
        length = route_len(sc.tx, sc.target, west, south, sc.rx)
        pk = PadpPeak(arrival_az_deg(south, sc.rx), length / C_LIGHT, 1.0)
        res = classify_bounce(pk, sc, delay_tol=0.5e-9, angle_tol_deg=2.5)
        assert res is not None and res.order == 2

    def test_unmatched_returns_none(self):
        sc = make_scene()
        pk = PadpPeak(10.0, 500e-9, 1.0)
        assert classify_bounce(pk, sc, delay_tol=1e-9, angle_tol_deg=2.5) is None

    def test_scale_consistency(self):
        # scaling the scene and the delays (and the delay tolerance) by
        # the same factor leaves assigned orders unchanged
        sc = make_scene()
        factor = 3.7
        scaled = ReconstructionScene(
            tx=sc.tx * factor, rx=sc.rx * factor, target=sc.target * factor,
            reflectors=tuple(GeometricScatterer(r.position * factor, label=r.label)
                             for r in sc.reflectors),
        )
        south = sc.reflectors[0].position
        length = route_len(sc.tx, sc.target, south, sc.rx)
        pk = PadpPeak(arrival_az_deg(south, sc.rx), length / C_LIGHT, 1.0)
        pk_scaled = PadpPeak(pk.angle_deg, pk.delay_s * factor, 1.0)
        r1 = classify_bounce(pk, sc, 1e-9, 2.5)
        r2 = classify_bounce(pk_scaled, scaled, 1e-9 * factor, 2.5)
        assert r1.order == r2.order


class TestPowerProportion:
    def test_measured_proportion_split_los_los(self):
        pp = power_proportion([(0, 18.9), (1, 65.7), (2, 15.4)])
        assert pp.as_tuple() == pytest.approx((0.189, 0.657, 0.154))
        assert sum(pp.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_measured_proportion_split_los_nlos(self):
        pp = power_proportion([(1, 16.4), (2, 41.8), (3, 41.8)])
        assert pp.as_tuple() == pytest.approx((0.0, 0.164, 0.836))

    def test_monostatic_direct_only(self):
        pp = power_proportion([(0, 5.0)])
        assert pp.as_tuple() == (1.0, 0.0, 0.0)

    def test_all_power_second_order(self):
        pp = power_proportion([(2, 3.3)])
        assert pp.as_tuple() == (0.0, 0.0, 1.0)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            power_proportion([(0, 0.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            power_proportion([])


class TestSharingDegree:
    def test_no_shared_is_zero(self):
        assert sharing_degree([], [(1.0 + 1j, 1.0)]) == 0.0

    def test_no_nonshared_is_one(self):
        assert sharing_degree([(0.3 - 0.2j, 2.0)], []) == pytest.approx(1.0)

    def test_random_split_matches_direct_sums(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            shared = [(complex(rng.normal(), rng.normal()), rng.uniform(0.1, 3.0))
                      for _ in range(rng.integers(1, 10))]
            nonshared = [(complex(rng.normal(), rng.normal()), rng.uniform(0.1, 3.0))
                         for _ in range(rng.integers(1, 10))]
            s = sum(a * g for a, g in shared)
            n = sum(a * g for a, g in nonshared)
            expected = abs(s) ** 2 / abs(s + n) ** 2
            assert sharing_degree(shared, nonshared) == pytest.approx(expected, rel=1e-12)

    def test_coherent_not_power_sums(self):
        # two opposite-phase shared paths cancel coherently: SD = 0,
        # whereas a power-sum definition would give 2/3
        shared = [(1.0, 1.0), (-1.0, 1.0)]
        nonshared = [(1.0, 1.0)]
        assert sharing_degree(shared, nonshared) == 0.0

    def test_global_phase_invariance(self):
        shared = [(1.0 + 0.5j, 1.2), (0.2 - 1j, 0.7)]
        nonshared = [(0.5, 1.0), (-0.1 + 0.9j, 2.0)]
        base = sharing_degree(shared, nonshared)
        rot = complex(np.exp(1j * 1.234))
        assert sharing_degree([(a * rot, g) for a, g in shared],
                              [(a * rot, g) for a, g in nonshared]) == pytest.approx(base)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            sharing_degree([(1.0, 1.0)], [(-1.0, 1.0)])

    def test_no_paths_rejected(self):
        with pytest.raises(ValueError):
            sharing_degree([], [])


class TestIdentifyShared:
    def _mono_peak(self, pos, txrx):
        d = float(np.linalg.norm(np.asarray(pos, float) - txrx))
        return PadpPeak(arrival_az_deg(pos, txrx), 2 * d / C_LIGHT, 1.0)

    def _bi_peak(self, pos, tx, rx):
        total = (float(np.linalg.norm(np.asarray(pos, float) - tx))
                 + float(np.linalg.norm(np.asarray(pos, float) - rx)))
        return PadpPeak(arrival_az_deg(pos, rx), total / C_LIGHT, 1.0)

    def test_localizers_invert_geometry(self):
        tx = np.array([0.0, 0.0, 0.0])
        rx = np.array([6.0, 1.0, 0.0])
        p = np.array([3.0, 4.0, 0.0])
        mono = locate_monostatic(self._mono_peak(p, tx), tx)
        np.testing.assert_allclose(mono, p, atol=1e-9)
        bi = locate_bistatic(self._bi_peak(p, tx, rx), tx, rx)
        np.testing.assert_allclose(bi, p, atol=1e-9)

    def test_same_wall_echo_is_shared(self):
        scene = ReconstructionScene(tx=[0, 0, 0], rx=[6, 1, 0], target=[3, 0, 0])
        wall = np.array([3.0, 4.0, 0.0])
        part = identify_shared([self._mono_peak(wall, scene.tx)],
                               [self._bi_peak(wall, scene.tx, scene.rx)],
                               scene, position_tol=0.5)
        assert len(part.shared_pairs) == 1
        assert part.mono_only == () and part.bi_only == ()

    def test_disjoint_scatterers_not_shared(self):
        scene = ReconstructionScene(tx=[0, 0, 0], rx=[6, 1, 0], target=[3, 0, 0])
        part = identify_shared([self._mono_peak([3.0, 4.0, 0.0], scene.tx)],
                               [self._bi_peak([-5.0, -2.0, 0.0], scene.tx, scene.rx)],
                               scene, position_tol=0.5)
        assert part.shared_pairs == ()
        assert len(part.mono_only) == 1 and len(part.bi_only) == 1

    def test_planted_hall_three_shared(self):
        scene = ReconstructionScene(tx=[0, 0, 0], rx=[5, 0, 0], target=[2, 0, 0])
        walls = [np.array([0.0, 7.0, 0.0]), np.array([9.0, 2.0, 0.0]),
                 np.array([-6.0, -3.0, 0.0])]
        mono_unique = np.array([2.0, -8.0, 0.0])
        bi_unique = np.array([12.0, 6.0, 0.0])
        mono = [self._mono_peak(w, scene.tx) for w in walls + [mono_unique]]
        bi = [self._bi_peak(w, scene.tx, scene.rx) for w in walls + [bi_unique]]
        part = identify_shared(mono, bi, scene, position_tol=0.5)
        assert len(part.shared_pairs) == 3
        assert len(part.mono_only) == 1
        assert len(part.bi_only) == 1

    def test_unlocalizable_bi_path_excluded(self):
        scene = ReconstructionScene(tx=[0, 0, 0], rx=[6, 0, 0], target=[3, 0, 0])
        # delay shorter than the Tx-Rx baseline cannot be a single bounce
        bogus = PadpPeak(45.0, 10e-9, 1.0)  # 3 m total < 6 m baseline
        part = identify_shared([], [bogus], scene, position_tol=0.5)
        assert part.excluded == 1


class TestFileRoundTrips:
    def test_padp_csv_round_trip(self, tmp_path):
        cir = cir_of([path(10e-9, 1.0, az_deg=40.0), path(55e-9, 0.2, az_deg=90.0)])
        grid = turntable_scan(cir, OMNI, np.arange(0.0, 30.0, 5.0), delay_grid(100e-9, 10e-9))
        arr = padp(grid)
        out = tmp_path / "padp.csv"
        write_padp_csv(out, grid)
        with open(out, newline="") as f:
            rows = [(float(r["angle_deg"]), float(r["delay_ns"]),
                     None if r["power_db"] == "" else float(r["power_db"]))
                    for r in csv.DictReader(f)]
        assert len(rows) == arr.size
        k = 0
        for i, ang in enumerate(grid.angles_deg):
            for j, tau in enumerate(grid.bin_centers()):
                g_ang, g_tau, g_db = rows[k]
                assert g_ang == ang
                assert g_tau == tau * 1e9
                if arr[i, j] <= 0:
                    assert g_db is None
                else:
                    assert g_db == 10 * math.log10(arr[i, j])
                k += 1

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(start=st.sampled_from([0.0, -90.0, 0.1, 1e-300]),
           step=st.sampled_from([5.0, 0.1, 60.0, 1 / 3]),
           n_angles=st.integers(1, 6),
           edges=st.sampled_from([delay_grid(100e-9, 10e-9), 1e-9 + 2.5e-9 * np.arange(13),
                                  np.array([0.0, 1e-300])]),
           data=st.data())
    def test_padp_csv_matches_per_cell_formatting(self, tmp_path, start, step, n_angles,
                                                  edges, data):
        cells = n_angles * (len(edges) - 1)
        power = data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1.9e-32, 0.5, 1.0, 3e5]),
            min_size=cells, max_size=cells))
        grid = ScanGrid(start + step * np.arange(n_angles),
                        np.reshape(power, (n_angles, -1)), edges)
        write_padp_csv(tmp_path / "padp.csv", grid)
        # the per-cell writer that write_padp_csv replaced
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["angle_deg", "delay_ns", "power_db"])
        for i, ang in enumerate(grid.angles_deg):
            for j, tau in enumerate(grid.bin_centers()):
                p = grid.power[i, j]
                p_db = "" if p <= 0.0 else f"{10.0 * math.log10(p):.17g}"
                w.writerow([f"{ang:.17g}", f"{tau * 1e9:.17g}", p_db])
        assert (tmp_path / "padp.csv").read_bytes() == want.getvalue().encode()

    def test_paths_json_round_trip(self, tmp_path):
        sc = make_scene()
        south = sc.reflectors[0].position
        length = route_len(sc.tx, sc.target, south, sc.rx)
        pk = PadpPeak(arrival_az_deg(south, sc.rx), length / C_LIGHT, 0.25)
        res = classify_bounce(pk, sc, 1e-9, 2.5)
        out = tmp_path / "paths.json"
        records = write_paths_json(out, [pk], [res])
        assert json.loads(out.read_text()) == {"paths": records}
        rec = records[0]
        assert rec["theta_deg"] == pk.angle_deg
        assert rec["tau_ns"] == pk.delay_s * 1e9
        assert rec["power_db"] == pk.power_db
        assert rec["bounce_order"] == 1
        assert rec["origin"] == "target"
        assert "south_wall" in rec["route_labels"]
