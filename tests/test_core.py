import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from isacsim import (
    Angle3D,
    Cir,
    ConstantRcs,
    CosineLobeRcs,
    Origin,
    PathComponent,
    TableRcs,
    angle_from_vector,
    db_to_linear,
    linear_to_db,
    merge_paths,
    spreading_gain_db,
    unit_vector,
    wavelength_m,
)
from isacsim.core import angles_close


def reference_merge(paths, delay_tol, angle_tol):
    """The anchor scan: each path, in delay order, joins the latest anchor
    within the tolerances, scanning back while delays are in reach."""
    groups = []  # [anchor, amplitude sum, origins]
    for p in sorted(paths, key=lambda p: p.delay):
        for g in reversed(groups):
            if p.delay - g[0].delay > delay_tol:
                g = None
                break
            if angles_close(p.aoa, g[0].aoa, angle_tol) and angles_close(p.aod, g[0].aod, angle_tol):
                break
        else:
            g = None
        if g is None:
            groups.append([p, p.amp, {p.origin}])
        else:
            g[1] += p.amp
            g[2].add(p.origin)
    return [replace(a, amp=s, origin=a.origin if len(og) == 1 else Origin.SHARED)
            for a, s, og in groups]


# small pools, so that equal keys, equal delays with other angles, and
# -0.0 next to 0.0 all come up
_angles = st.builds(Angle3D, st.sampled_from([0.0, 1.0, 2 * math.pi - 1e-9]),
                    st.sampled_from([0.0, -0.0, 0.3]))
_paths = st.lists(st.builds(
    PathComponent,
    delay=st.sampled_from([0.0, 1e-9, 1e-9 + 1e-24, 2.5e-9]),
    amp=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    aod=_angles, aoa=_angles,
    bounce_order=st.integers(0, 2),
    origin=st.sampled_from([Origin.TARGET, Origin.BACKGROUND])), max_size=40)


# delays on a grid of half the tolerance, so that gaps of exactly the
# tolerance come up, next to delays whose differences round
_GAP_TOL = 2.0 ** -30
_gap_paths = st.lists(st.builds(
    PathComponent,
    delay=st.one_of(st.integers(0, 12).map(lambda k: k * _GAP_TOL / 2),
                    st.sampled_from([1e-9, 1e-9 + 1e-24, 2e-9])),
    amp=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    aod=st.builds(Angle3D, st.floats(0.0, 2 * math.pi), st.floats(-math.pi / 2, math.pi / 2)),
    aoa=st.builds(Angle3D, st.sampled_from([0.0, math.pi, 2 * math.pi - 1e-15]),
                  st.sampled_from([-math.pi / 2, -0.0, math.pi / 2])),
    origin=st.sampled_from([Origin.TARGET, Origin.BACKGROUND])), max_size=40)


class TestUnitVector:
    def test_axis_cases(self):
        np.testing.assert_allclose(unit_vector(Angle3D(0.0, 0.0)), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(unit_vector(Angle3D(math.pi / 2, 0.0)), [0, 1, 0], atol=1e-15)

    def test_general_direction(self):
        # frozen from an independent cos/sin evaluation of the spherical formula
        v = unit_vector(Angle3D(0.3, 0.2))
        np.testing.assert_allclose(
            v, [0.9362933635841992, 0.28962947762551555, 0.19866933079506122], rtol=1e-14)

    def test_norm_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = Angle3D(rng.uniform(0, 2 * math.pi), rng.uniform(-math.pi / 2, math.pi / 2))
            assert abs(np.linalg.norm(unit_vector(a)) - 1.0) < 1e-12

    def test_round_trip_with_angle_extraction(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = Angle3D(rng.uniform(0, 2 * math.pi), rng.uniform(-1.4, 1.4))
            b = angle_from_vector(unit_vector(a))
            assert abs(b.azimuth - a.azimuth) < 1e-9
            assert abs(b.elevation - a.elevation) < 1e-9

    def test_azimuth_wraps(self):
        a = Angle3D(2 * math.pi + 0.25, 0.0)
        assert abs(a.azimuth - 0.25) < 1e-12

    @pytest.mark.parametrize("az", [-1e-17, -1e-300])
    def test_tiny_negative_azimuth_wraps_to_zero_not_two_pi(self, az):
        assert (az % (2 * math.pi)) == 2 * math.pi  # the remainder rounds up
        assert Angle3D(az, 0.0).azimuth == 0.0
        cir = Cir.from_columns([1e-9, 2e-9], [1.0, 1.0], aod_az=az, aoa_az=[az, -0.5])
        assert cir.aod_az.tolist() == [0.0, 0.0]
        assert cir.aoa_az.tolist() == [0.0, -0.5 % (2 * math.pi)]

    def test_elevation_range_enforced(self):
        with pytest.raises(ValueError):
            Angle3D(0.0, 2.0)


class TestDbConversions:
    def test_trivial_values(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == 10.0

    def test_negative_db(self):
        # 10^(-3.823) evaluated independently
        assert db_to_linear(-38.23) == pytest.approx(1.5031419660900224e-4, abs=1e-7)

    def test_round_trip(self):
        x = np.linspace(-200.0, 200.0, 4001)
        back = linear_to_db(db_to_linear(x))
        np.testing.assert_allclose(back, x, rtol=1e-12, atol=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-3.0)


class TestSpreadingGain:
    def test_value_at_6p9_ghz(self):
        assert spreading_gain_db(wavelength_m(6.9e9)) == pytest.approx(-38.2327, abs=0.001)

    def test_wavelength_uses_exact_c(self):
        assert wavelength_m(2.99792458e8) == 1.0


class TestMergePaths:
    def _p(self, delay, amp, az=0.0, el=0.0, origin=Origin.BACKGROUND):
        ang = Angle3D(az, el)
        return PathComponent(delay=delay, amp=amp, aod=ang, aoa=ang, origin=origin)

    def test_within_resolution_merges_coherently(self):
        # 600 MHz resolution: 1.67 ns tolerance, delays 0.1 ns apart merge
        tol = 1.0 / 600e6
        a = self._p(33.3e-9, 1.0 + 0.5j)
        b = self._p(33.4e-9, 0.25 - 1.0j)
        merged = merge_paths([a, b], tol, 0.1)
        assert len(merged) == 1
        assert merged[0].amp == pytest.approx((1.25 - 0.5j))
        assert merged[0].delay == 33.3e-9

    def test_distant_paths_kept(self):
        merged = merge_paths([self._p(10e-9, 1.0), self._p(50e-9, 1.0)], 1e-9, 0.1)
        assert len(merged) == 2

    def test_angle_separation_blocks_merge(self):
        a = self._p(10e-9, 1.0, az=0.0)
        b = self._p(10e-9, 1.0, az=0.5)
        merged = merge_paths([a, b], 1e-9, 0.1)
        assert len(merged) == 2

    def test_idempotent_on_random_paths(self):
        rng = np.random.default_rng(11)
        paths = [
            self._p(rng.uniform(0, 50e-9), complex(rng.normal(), rng.normal()),
                    az=rng.uniform(0, 2 * math.pi))
            for _ in range(60)
        ]
        once = merge_paths(paths, 2e-9, 0.05)
        twice = merge_paths(once, 2e-9, 0.05)
        assert len(once) == len(twice)
        for p, q in zip(once, twice):
            assert p.delay == q.delay
            assert p.amp == q.amp

    def test_output_sorted_by_delay(self):
        rng = np.random.default_rng(12)
        paths = [self._p(rng.uniform(0, 1e-6), 1.0, az=rng.uniform(0, 6)) for _ in range(40)]
        merged = merge_paths(paths, 1e-9, 0.01)
        delays = [p.delay for p in merged]
        assert delays == sorted(delays)

    @settings(max_examples=150, deadline=None)
    @given(paths=_paths, tols=st.sampled_from([(0.0, 0.0), (1e-9, 0.5)]))
    def test_matches_anchor_scan(self, paths, tols):
        # repr tells -0.0 from 0.0, which == does not
        assert ([repr(p) for p in merge_paths(paths, *tols)]
                == [repr(p) for p in reference_merge(paths, *tols)])

    @settings(max_examples=150, deadline=None)
    @given(paths=_gap_paths, angle_tol=st.sampled_from([math.pi, 4.0]),
           delay_tol=st.sampled_from([_GAP_TOL, 0.0, 1e-9]))
    def test_wide_angle_tolerance_matches_anchor_scan(self, paths, angle_tol, delay_tol):
        # no angle test can fail, so only the delay gaps decide the groups
        assert ([repr(p) for p in merge_paths(paths, delay_tol, angle_tol)]
                == [repr(p) for p in reference_merge(paths, delay_tol, angle_tol)])

    def test_wide_angle_tolerance_gap_equal_to_tolerance(self):
        delays = [0.0, _GAP_TOL, 2 * _GAP_TOL, 2 * _GAP_TOL, 3.5 * _GAP_TOL]
        merged = merge_paths(Cir.from_columns(delays, 1.0), _GAP_TOL, math.pi)
        # the gap of exactly the tolerance joins; so do the equal delays
        assert merged.delay.tolist() == [0.0, 2 * _GAP_TOL, 3.5 * _GAP_TOL]
        assert merged.amp.tolist() == [2, 2, 1]

    @pytest.mark.parametrize("tols", [(0.0, 0.0), (1e-12, 1e-9)])
    def test_merge_joins_tiny_negative_azimuth_with_zero(self, tols):
        paths = [self._p(10e-9, 1.0, az=-1e-17), self._p(10e-9, 2.0, az=0.0)]
        for merged in (merge_paths(paths, *tols),
                       merge_paths(Cir.from_columns([10e-9] * 2, [1.0, 2.0],
                                                    aod_az=[-1e-17, 0.0],
                                                    aoa_az=[-1e-17, 0.0]), *tols).paths):
            assert len(merged) == 1
            assert merged[0].amp == 3.0 and merged[0].aoa.azimuth == 0.0

    def test_mixed_origin_becomes_shared(self):
        a = self._p(10e-9, 1.0, origin=Origin.TARGET)
        b = self._p(10e-9, 1.0, origin=Origin.BACKGROUND)
        merged = merge_paths([a, b], 1e-9, 0.1)
        assert merged[0].origin is Origin.SHARED


class TestCir:
    def test_paths_sorted_on_construction(self):
        p1 = PathComponent(delay=5e-9, amp=1.0)
        p2 = PathComponent(delay=1e-9, amp=2.0)
        cir = Cir((p1, p2))
        assert cir.paths[0].delay == 1e-9
        assert cir.total_power() == pytest.approx(5.0)

    @settings(max_examples=150, deadline=None)
    @given(paths=_paths)
    def test_paths_view_returns_stable_delay_order(self, paths):
        # repr tells -0.0 from 0.0, which == does not
        want = [repr(p) for p in sorted(paths, key=lambda p: p.delay)]
        cir = Cir(paths, t0=0.5, carrier_freq=6.9e9)
        assert len(cir) == len(cir.paths) == len(paths)
        assert [repr(p) for p in cir.paths] == want
        assert [repr(cir.paths[i]) for i in range(len(paths))] == want
        assert [repr(p) for p in Cir(cir.paths).paths] == want
        assert (cir.t0, cir.carrier_freq) == (0.5, 6.9e9)

    @settings(max_examples=100, deadline=None)
    @given(paths=_paths, tols=st.sampled_from([(0.0, 0.0), (1e-9, 0.5)]))
    def test_merge_of_cir_matches_merge_of_paths(self, paths, tols):
        merged = merge_paths(Cir(paths, carrier_freq=1.0), *tols)
        assert isinstance(merged, Cir) and merged.carrier_freq == 1.0
        assert [repr(p) for p in merged.paths] == [repr(p) for p in merge_paths(paths, *tols)]

    def test_view_indexing(self):
        cir = Cir(tuple(PathComponent(delay=d, amp=complex(d)) for d in (3.0, 1.0, 2.0)))
        assert cir.paths[-1].delay == 3.0
        assert [p.amp for p in cir.paths[1:]] == [2, 3]
        with pytest.raises(IndexError):
            cir.paths[3]
        with pytest.raises(IndexError):
            cir.paths[-4]

    def test_concat_keeps_earlier_cir_first_on_ties(self):
        a = Cir((PathComponent(delay=1e-9, amp=1.0, origin=Origin.TARGET),
                 PathComponent(delay=3e-9, amp=1.0, origin=Origin.TARGET)))
        b = Cir((PathComponent(delay=1e-9, amp=2.0), PathComponent(delay=2e-9, amp=2.0)))
        both = Cir.concat([a, b], carrier_freq=5.0)
        assert [(p.delay, p.amp) for p in both.paths] == [(1e-9, 1), (1e-9, 2), (2e-9, 2), (3e-9, 1)]
        assert both.carrier_freq == 5.0
        assert len(Cir.concat([])) == 0

    def test_from_columns_checks_and_normalizes(self):
        cir = Cir.from_columns([2e-9, 1e-9], [1.0, 2j], aoa_az=[-0.5, 2 * math.pi + 1.0],
                               aoa_el=-0.0, bounce_order=1, origin=Origin.TARGET)
        p = cir.paths[0]
        assert (p.delay, p.amp, p.aoa.azimuth, p.bounce_order, p.origin) == (
            1e-9, 2j, (2 * math.pi + 1.0) % (2 * math.pi), 1, Origin.TARGET)
        assert math.copysign(1.0, p.aoa.elevation) == -1.0
        assert cir.aoa_az.tolist() == [(2 * math.pi + 1.0) % (2 * math.pi), -0.5 % (2 * math.pi)]
        for bad, match in [(dict(delay=[-1e-9]), "delay"), (dict(amp=[np.nan]), "amplitude"),
                           (dict(aod_el=[2.0]), "elevation"), (dict(bounce_order=[-1]), "bounce"),
                           (dict(aoa_az=[np.inf]), "finite")]:
            kwargs = dict(delay=[1e-9], amp=[1.0]) | bad
            with pytest.raises(ValueError, match=match):
                Cir.from_columns(**kwargs)

    def test_immutable(self):
        cir = Cir((PathComponent(delay=1e-9, amp=1.0),))
        with pytest.raises(AttributeError):
            cir.t0 = 1.0
        with pytest.raises(ValueError):
            cir.amp[0] = 2.0
        assert cir.scaled(2.0).amps()[0] == 2.0 and cir.amps()[0] == 1.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            PathComponent(delay=-1e-9, amp=1.0)


class TestRcsModels:
    def test_constant_ignores_angles(self):
        m = ConstantRcs(8.48)
        a, b = Angle3D(0.1, 0.0), Angle3D(3.0, -0.4)
        assert m.eval_dbsm(a, b) == 8.48

    def test_cosine_lobe_zero_exponent_is_constant(self):
        m = CosineLobeRcs(5.0, exponent=0.0)
        for az in (0.0, 1.0, 3.0):
            assert m.eval_dbsm(Angle3D(az, 0.0), Angle3D(0.0, 0.0)) == 5.0

    def test_cosine_lobe_peaks_on_axis(self):
        m = CosineLobeRcs(0.0, exponent=2.0)
        on = m.eval_dbsm(Angle3D(0.0, 0.0), Angle3D(0.0, 0.0))
        off = m.eval_dbsm(Angle3D(0.5, 0.0), Angle3D(0.5, 0.0))
        assert on == pytest.approx(0.0)
        assert off < on

    def test_single_entry_table(self):
        t = TableRcs([0.0], [0.0], [0.0], [0.0], np.array([[[[8.48]]]]))
        assert t.eval_dbsm(Angle3D(1.0, 0.2), Angle3D(2.0, -0.2)) == pytest.approx(8.48)

    def test_table_clamps_every_axis_to_its_edges(self):
        rng = np.random.default_rng(9)
        axes = [np.array([0.5, 1.0, 2.0]), np.array([-0.2, 0.3]),
                np.array([1.0, 4.0]), np.array([-0.5, 0.0, 0.5])]
        t = TableRcs(*axes, rng.uniform(-10.0, 10.0, (3, 2, 2, 3)))
        # below every axis, above every axis, and exactly on the upper edges
        got = t.eval_dbsm_pairs([[0.0, -1.0], [6.0, 1.0], [2.0, 0.3]],
                                [[0.0, -1.0], [6.0, 1.0], [4.0, 0.5]])
        v = t.values_dbsm
        assert got[0, 0] == v[0, 0, 0, 0]
        assert got[1, 1] == v[-1, -1, -1, -1]
        assert got[2, 2] == v[-1, -1, -1, -1]
        assert got[0, 1] == v[0, 0, -1, -1]

    def test_table_singleton_axes_ignore_their_coordinate(self):
        vals = np.array([0.0, 4.0]).reshape(1, 2, 1, 1)  # varies along el_in only
        t = TableRcs([1.0], [0.0, 0.4], [2.0], [0.1], vals)
        got = t.eval_dbsm_pairs([[0.0, 0.1], [5.0, 0.1], [3.0, 0.3]],
                                [[0.0, -1.0], [6.0, 1.0]])
        np.testing.assert_allclose(got, [[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]], rtol=1e-12)

    def test_table_interpolates_and_clamps(self):
        az_out = np.array([0.0, 1.0])
        vals = np.array([[[[0.0], [10.0]]]])  # shape (1, 1, 2, 1), varies along az_out
        t = TableRcs([0.0], [0.0], az_out, [0.0], vals)
        mid = t.eval_dbsm(Angle3D(0.0, 0.0), Angle3D(0.5, 0.0))
        assert mid == pytest.approx(5.0)
        beyond = t.eval_dbsm(Angle3D(0.0, 0.0), Angle3D(2.0, 0.0))
        assert beyond == pytest.approx(10.0)  # clamped, no extrapolation


    @pytest.mark.parametrize("shape", [(4, 1, 5, 3), (1, 1, 1, 1), (3, 2, 1, 1)])
    def test_table_pairs_match_pointwise_interpolation(self, shape):
        # every pair against its own interpolator over the non-singleton
        # axes, queried at the clamped angles
        rng = np.random.default_rng(sum(shape))
        axes = [np.sort(rng.uniform(-1.0, 1.0, n)) + (3.0 if i % 2 == 0 else 0.0)
                for i, n in enumerate(shape)]
        t = TableRcs(*axes, rng.uniform(-10.0, 10.0, shape))
        ang_in = np.column_stack([rng.uniform(1.5, 4.5, 6), rng.uniform(-1.2, 1.2, 6)])
        ang_out = np.column_stack([rng.uniform(1.5, 4.5, 5), rng.uniform(-1.2, 1.2, 5)])
        keep = [i for i, n in enumerate(shape) if n > 1]
        vals = t.values_dbsm[tuple(slice(None) if i in keep else 0 for i in range(4))]
        got = t.eval_dbsm_pairs(ang_in, ang_out)
        for i, g_in in enumerate(ang_in):
            for j, g_out in enumerate(ang_out):
                q = np.concatenate([g_in, g_out])[keep]
                if keep:
                    q = np.clip(q, [axes[k][0] for k in keep], [axes[k][-1] for k in keep])
                    want = RegularGridInterpolator([axes[k] for k in keep], vals)(q)[0]
                else:
                    want = float(vals)
                assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)
                assert t.eval_dbsm(Angle3D(*g_in), Angle3D(*g_out)) == got[i, j]
