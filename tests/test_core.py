import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from isacsim import (
    AntennaModel,
    Cir,
    ConstantRcs,
    GeometricScatterer,
    Origin,
    ReconstructionScene,
    ScatteringPoint,
    TableRcs,
    angle_from_vector,
    background_monostatic,
    linear_to_db,
    merge_paths,
    spreading_gain_db,
    unit_vectors,
    wavelength_m,
)
from isacsim.core import COLUMNS, ORIGINS, wrapped_azimuths

TARGET, BACKGROUND, SHARED = (ORIGINS.index(o) for o in
                              (Origin.TARGET, Origin.BACKGROUND, Origin.SHARED))


def rows(cir):
    """The rows of a Cir as tuples of Python values, in COLUMNS order."""
    return list(zip(*(getattr(cir, name).tolist() for name in COLUMNS)))


def cir_of_rows(rows):
    """A Cir from (delay, amp, (aod_az, aod_el), (aoa_az, aoa_el),
    bounce_order, origin_code) rows."""
    delay, amp, aod, aoa, bounce, origin = (list(c) for c in zip(*rows)) if rows else [[]] * 6
    aod, aoa = np.reshape(aod, (-1, 2)), np.reshape(aoa, (-1, 2))
    return Cir.from_columns(delay, amp, 0.0, aod[:, 0], aod[:, 1], aoa[:, 0], aoa[:, 1],
                            bounce, np.array(origin, dtype=np.int8))


def _close(az1, el1, az2, el2, tol):
    d = abs(az1 - az2) % (2 * math.pi)
    return min(d, 2 * math.pi - d) <= tol and abs(el1 - el2) <= tol


def reference_groups(cir, delay_tol, angle_tol):
    """The anchor scan, row by row: each row, in delay order, joins the
    latest anchor within the tolerances, scanning back while delays are
    in reach. The groups as lists of row indices, anchor first."""
    rs = rows(cir)
    groups = []
    for i, (delay, _, _, aod_az, aod_el, aoa_az, aoa_el, _, _) in enumerate(rs):
        for g in reversed(groups):
            a = rs[g[0]]
            if delay - a[0] > delay_tol:
                g = None
                break
            if _close(aoa_az, aoa_el, a[5], a[6], angle_tol) and _close(aod_az, aod_el,
                                                                         a[3], a[4], angle_tol):
                break
        else:
            g = None
        if g is None:
            groups.append([i])
        else:
            g.append(i)
    return groups


def reference_merge(cir, delay_tol, angle_tol):
    """The rows of the merged Cir by the anchor scan: each anchor row with
    the summed amplitude, SHARED if the group's origins are mixed."""
    rs = rows(cir)
    out = []
    for g in reference_groups(cir, delay_tol, angle_tol):
        amp = rs[g[0]][1]
        for i in g[1:]:
            amp += rs[i][1]
        origin = rs[g[0]][8] if len({rs[i][8] for i in g}) == 1 else SHARED
        out.append(rs[g[0]][:1] + (amp,) + rs[g[0]][2:8] + (origin,))
    return out


def _cirs(delay, aod, aoa):
    """Cirs of up to 40 paths, drawn row by row."""
    return st.lists(st.tuples(
        delay, st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        aod, aoa, st.integers(0, 2), st.sampled_from([TARGET, BACKGROUND])),
        max_size=40).map(cir_of_rows)


# small pools, so that equal keys, equal delays with other angles, and
# -0.0 next to 0.0 all come up
_angles = st.tuples(st.sampled_from([0.0, 1.0, 2 * math.pi - 1e-9]),
                    st.sampled_from([0.0, -0.0, 0.3]))
_key_cirs = _cirs(st.sampled_from([0.0, 1e-9, 1e-9 + 1e-24, 2.5e-9]), _angles, _angles)


# delays on a grid of half the tolerance, so that gaps of exactly the
# tolerance come up, next to delays whose differences round
_GAP_TOL = 2.0 ** -30
_gap_cirs = _cirs(
    st.one_of(st.integers(0, 12).map(lambda k: k * _GAP_TOL / 2),
              st.sampled_from([1e-9, 1e-9 + 1e-24, 2e-9])),
    st.tuples(st.floats(0.0, 2 * math.pi), st.floats(-math.pi / 2, math.pi / 2)),
    st.tuples(st.sampled_from([0.0, math.pi, 2 * math.pi - 1e-15]),
              st.sampled_from([-math.pi / 2, -0.0, math.pi / 2])))


class TestUnitVector:
    def test_axis_cases(self):
        np.testing.assert_allclose(unit_vectors([(0.0, 0.0), (math.pi / 2, 0.0)]),
                                   [[1, 0, 0], [0, 1, 0]], atol=1e-15)

    def test_general_direction(self):
        # frozen from an independent cos/sin evaluation of the spherical formula
        v = unit_vectors([(0.3, 0.2)])[0]
        np.testing.assert_allclose(
            v, [0.9362933635841992, 0.28962947762551555, 0.19866933079506122], rtol=1e-14)

    def test_norm_is_one(self):
        rng = np.random.default_rng(3)
        rows = np.column_stack([rng.uniform(0, 2 * math.pi, 200),
                                rng.uniform(-math.pi / 2, math.pi / 2, 200)])
        assert np.all(np.abs(np.linalg.norm(unit_vectors(rows), axis=1) - 1.0) < 1e-12)

    def test_round_trip_with_angle_extraction(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = (rng.uniform(0, 2 * math.pi), rng.uniform(-1.4, 1.4))
            b = angle_from_vector(unit_vectors([a])[0])
            assert type(b) is tuple and all(type(x) is float for x in b)
            assert abs(b[0] - a[0]) < 1e-9
            assert abs(b[1] - a[1]) < 1e-9

    def test_azimuth_wraps(self):
        assert abs(wrapped_azimuths(2 * math.pi + 0.25, 0.0) - 0.25) < 1e-12
        assert abs(AntennaModel(boresight=(2 * math.pi + 0.25, 0.0)).boresight[0] - 0.25) < 1e-12

    @pytest.mark.parametrize("az", [-1e-17, -1e-300])
    def test_tiny_negative_azimuth_wraps_to_zero_not_two_pi(self, az):
        assert (az % (2 * math.pi)) == 2 * math.pi  # the remainder rounds up
        assert wrapped_azimuths(az, 0.0) == 0.0
        assert AntennaModel(boresight=(az, 0.0)).boresight == (0.0, 0.0)
        assert angle_from_vector([1.0, az, 0.0]) == (0.0, 0.0)
        cir = Cir.from_columns([1e-9, 2e-9], [1.0, 1.0], aod_az=az, aoa_az=[az, -0.5])
        assert cir.aod_az.tolist() == [0.0, 0.0]
        assert cir.aoa_az.tolist() == [0.0, -0.5 % (2 * math.pi)]

    def test_elevation_range_enforced(self):
        with pytest.raises(ValueError, match="elevation outside"):
            wrapped_azimuths(0.0, 2.0)
        with pytest.raises(ValueError, match="elevation outside"):
            AntennaModel(boresight=(0.0, 2.0))
        with pytest.raises(ValueError, match="finite"):
            AntennaModel(boresight=(math.nan, 0.0))


class TestDbConversions:
    def test_trivial_values(self):
        assert linear_to_db(1.0) == 0.0
        assert linear_to_db(10.0) == 10.0

    def test_negative_db(self):
        # 10^(-3.823) evaluated independently
        assert linear_to_db(1.5031419660900224e-4) == pytest.approx(-38.23, abs=1e-12)

    def test_round_trip(self):
        x = np.linspace(-200.0, 200.0, 4001)
        back = linear_to_db(np.logspace(-20.0, 20.0, 4001))
        np.testing.assert_allclose(back, x, rtol=1e-12, atol=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-3.0)


class TestSpreadingGain:
    def test_value_at_6p9_ghz(self):
        # 10 log10(4 pi / lambda^2)
        assert spreading_gain_db(wavelength_m(6.9e9)) == pytest.approx(38.2327, abs=0.001)

    def test_wavelength_uses_exact_c(self):
        assert wavelength_m(2.99792458e8) == 1.0


class TestMergePaths:
    def _cir(self, delays, amps, az=0.0, origin=Origin.BACKGROUND):
        return Cir.from_columns(delays, amps, aod_az=az, aoa_az=az, origin=origin)

    def test_within_resolution_merges_coherently(self):
        # 600 MHz resolution: 1.67 ns tolerance, delays 0.1 ns apart merge
        tol = 1.0 / 600e6
        merged = merge_paths(self._cir([33.3e-9, 33.4e-9], [1.0 + 0.5j, 0.25 - 1.0j]),
                             tol, math.pi)
        assert len(merged) == 1
        assert merged.amp[0] == pytest.approx((1.25 - 0.5j))
        assert merged.delay[0] == 33.3e-9

    def test_distant_paths_kept(self):
        merged = merge_paths(self._cir([10e-9, 50e-9], 1.0), 1e-9, math.pi)
        assert len(merged) == 2

    def test_angle_separation_blocks_merge(self):
        merged = merge_paths(self._cir([10e-9, 10e-9], 1.0, az=[0.0, 0.5]), 0.0, 0.0)
        assert len(merged) == 2

    def test_idempotent_on_random_paths(self):
        rng = np.random.default_rng(11)
        cir = self._cir(rng.uniform(0, 50e-9, 60),
                        rng.normal(size=60) + 1j * rng.normal(size=60),
                        az=rng.uniform(0, 2 * math.pi, 60))
        once = merge_paths(cir, 2e-9, math.pi)
        twice = merge_paths(once, 2e-9, math.pi)
        assert len(once) == len(twice) < len(cir)
        assert once.delay.tolist() == twice.delay.tolist()
        assert once.amp.tolist() == twice.amp.tolist()

    def test_output_sorted_by_delay(self):
        rng = np.random.default_rng(12)
        merged = merge_paths(self._cir(rng.uniform(0, 1e-6, 40), 1.0), 1e-9, math.pi)
        delays = merged.delay.tolist()
        assert delays == sorted(delays)

    @pytest.mark.parametrize("tols", [(1e-9, 0.1), (1e-9, 0.0), (0.0, 1e-9), (-1e-9, math.pi)])
    def test_unsupported_tolerances_raise(self, tols):
        with pytest.raises(ValueError, match="tolerances"):
            merge_paths(self._cir([1e-9], 1.0), *tols)

    def test_only_a_cir_is_merged(self):
        with pytest.raises(ValueError, match="takes a Cir"):
            merge_paths([(1e-9, 1.0)], 0.0, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(cir=_key_cirs)
    def test_matches_anchor_scan(self, cir):
        # repr tells -0.0 from 0.0, which == does not
        assert repr(rows(merge_paths(cir, 0.0, 0.0))) == repr(reference_merge(cir, 0.0, 0.0))

    @settings(max_examples=150, deadline=None)
    @given(cir=_gap_cirs, angle_tol=st.sampled_from([math.pi, 4.0]),
           delay_tol=st.sampled_from([_GAP_TOL, 0.0, 1e-9]))
    def test_wide_angle_tolerance_matches_anchor_scan(self, cir, angle_tol, delay_tol):
        # no angle test can fail, so only the delay gaps decide the groups
        assert (repr(rows(merge_paths(cir, delay_tol, angle_tol)))
                == repr(reference_merge(cir, delay_tol, angle_tol)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rule=st.sampled_from(["exact", "delay gap"]))
    def test_merge_laws(self, data, rule):
        # at both supported rules: merging again changes nothing, the
        # amplitude sum is kept, and each merged power is at most the
        # group size times the group's power (Cauchy-Schwarz)
        cirs, tols = {"exact": (_key_cirs, (0.0, 0.0)),
                      "delay gap": (_gap_cirs, (_GAP_TOL, math.pi))}[rule]
        cir = data.draw(cirs)
        merged = merge_paths(cir, *tols)
        assert isinstance(merged, Cir)
        again = merge_paths(merged, *tols)
        for name in COLUMNS:
            assert getattr(again, name).tobytes() == getattr(merged, name).tobytes(), name
        scale = float(np.sum(np.abs(cir.amp))) + 1.0
        assert abs(complex(np.sum(merged.amp)) - complex(np.sum(cir.amp))) <= 1e-12 * scale
        groups = reference_groups(cir, *tols)
        assert len(groups) == len(merged)
        for p, g in zip(merged.powers(), groups):
            assert p <= len(g) * float(np.sum(cir.powers()[g])) * (1 + 1e-12) + 1e-300

    def test_wide_angle_tolerance_gap_equal_to_tolerance(self):
        delays = [0.0, _GAP_TOL, 2 * _GAP_TOL, 2 * _GAP_TOL, 3.5 * _GAP_TOL]
        merged = merge_paths(Cir.from_columns(delays, 1.0), _GAP_TOL, math.pi)
        # the gap of exactly the tolerance joins; so do the equal delays
        assert merged.delay.tolist() == [0.0, 2 * _GAP_TOL, 3.5 * _GAP_TOL]
        assert merged.amp.tolist() == [2, 2, 1]

    @pytest.mark.parametrize("tols", [(0.0, 0.0), (1e-12, math.pi)])
    def test_merge_joins_tiny_negative_azimuth_with_zero(self, tols):
        merged = merge_paths(self._cir([10e-9] * 2, [1.0, 2.0], az=[-1e-17, 0.0]), *tols)
        assert len(merged) == 1
        assert merged.amp[0] == 3.0 and merged.aoa_az[0] == 0.0

    def test_mixed_origin_becomes_shared(self):
        merged = merge_paths(self._cir([10e-9] * 2, 1.0, origin=[TARGET, BACKGROUND]), 0.0, 0.0)
        assert ORIGINS[merged.origin_code[0]] is Origin.SHARED


class TestCir:
    def test_paths_sorted_on_construction(self):
        cir = Cir.from_columns([5e-9, 1e-9], [1.0, 2.0])
        assert cir.delay[0] == 1e-9
        assert cir.total_power() == pytest.approx(5.0)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_in_stable_delay_order(self, data):
        rs = data.draw(st.lists(st.tuples(
            st.sampled_from([0.0, 1e-9, 1e-9 + 1e-24, 2.5e-9]),
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            _angles, _angles, st.integers(0, 2), st.sampled_from([TARGET, BACKGROUND])),
            max_size=40))
        cir = cir_of_rows(rs)
        want = [(d, a, 0.0) + aod + aoa + (b, o)
                for d, a, aod, aoa, b, o in sorted(rs, key=lambda r: r[0])]
        # repr tells -0.0 from 0.0, which == does not
        assert repr(rows(cir)) == repr(want)

    def test_paths_is_the_cir_itself(self):
        cir = Cir.from_columns([1e-9, 2e-9], 1.0)
        assert cir.paths is cir and len(cir.paths) == 2

    def test_only_built_from_columns(self):
        with pytest.raises(TypeError, match="from_columns"):
            Cir()

    def test_concat_keeps_earlier_cir_first_on_ties(self):
        a = Cir.from_columns([1e-9, 3e-9], 1.0, origin=Origin.TARGET)
        b = Cir.from_columns([1e-9, 2e-9], 2.0)
        both = Cir.concat([a, b])
        assert list(zip(both.delay.tolist(), both.amp.tolist())) == [
            (1e-9, 1), (1e-9, 2), (2e-9, 2), (3e-9, 1)]
        assert len(Cir.concat([])) == 0

    def test_from_columns_checks_and_normalizes(self):
        cir = Cir.from_columns([2e-9, 1e-9], [1.0, 2j], aoa_az=[-0.5, 2 * math.pi + 1.0],
                               aoa_el=-0.0, bounce_order=1, origin=Origin.TARGET)
        assert (cir.delay[0], cir.amp[0], cir.aoa_az[0], cir.bounce_order[0],
                ORIGINS[cir.origin_code[0]]) == (
            1e-9, 2j, (2 * math.pi + 1.0) % (2 * math.pi), 1, Origin.TARGET)
        assert math.copysign(1.0, cir.aoa_el[0]) == -1.0
        assert cir.aoa_az.tolist() == [(2 * math.pi + 1.0) % (2 * math.pi), -0.5 % (2 * math.pi)]
        for bad, match in [(dict(delay=[-1e-9]), "delay"), (dict(amp=[np.nan]), "amplitude"),
                           (dict(aod_el=[2.0]), "elevation"), (dict(bounce_order=[-1]), "bounce"),
                           (dict(aoa_az=[np.inf]), "finite")]:
            kwargs = dict(delay=[1e-9], amp=[1.0]) | bad
            with pytest.raises(ValueError, match=match):
                Cir.from_columns(**kwargs)

    def test_immutable(self):
        cir = Cir.from_columns([1e-9], [1.0])
        with pytest.raises(AttributeError):
            cir.delay = np.zeros(1)
        with pytest.raises(ValueError):
            cir.amp[0] = 2.0
        assert cir.scaled(2.0).amp[0] == 2.0 and cir.amp[0] == 1.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Cir.from_columns([-1e-9], [1.0])


# each constructor of a point, with the field its one vector argument fills
_POINTS = {
    "position": lambda v: ScatteringPoint(position=v),
    "velocity": lambda v: ScatteringPoint(position=[1, 0, 0], velocity=v),
    "scatterer position": lambda v: GeometricScatterer(position=v),
    "tx position": lambda v: ReconstructionScene(tx=v, rx=[1, 0, 0], target=[2, 0, 0]),
    "rx position": lambda v: ReconstructionScene(tx=[0, 0, 0], rx=v, target=[2, 0, 0]),
    "target position": lambda v: ReconstructionScene(tx=[0, 0, 0], rx=[1, 0, 0], target=v),
    "Tx/Rx position": lambda v: background_monostatic([], v, wl=0.01),
}


@pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [1.0, 2.0]],
                         ids=["nan", "inf", "2-vector"])
@pytest.mark.parametrize("field", list(_POINTS))
def test_point_must_be_three_finite_numbers(field, bad):
    _POINTS[field]([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be 3 finite numbers"):
        _POINTS[field](bad)


class TestRcsModels:
    def test_constant_ignores_angles(self):
        m = ConstantRcs(8.48)
        a, b = (0.1, 0.0), (3.0, -0.4)
        assert m.eval_dbsm_pairs([a], [b]).tolist() == [[8.48]]

    def test_single_entry_table(self):
        t = TableRcs([0.0], [0.0], [0.0], [0.0], np.array([[[[8.48]]]]))
        assert t.eval_dbsm_pairs([[1.0, 0.2]], [[2.0, -0.2]])[0, 0] == pytest.approx(8.48)

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
        mid = t.eval_dbsm_pairs([[0.0, 0.0]], [[0.5, 0.0]])[0, 0]
        assert mid == pytest.approx(5.0)
        beyond = t.eval_dbsm_pairs([[0.0, 0.0]], [[2.0, 0.0]])[0, 0]
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
                assert t.eval_dbsm_pairs([g_in], [g_out])[0, 0] == got[i, j]
