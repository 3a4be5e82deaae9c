import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim import (
    OMNI,
    AntennaModel,
    Angle3D,
    ClusterSet,
    ConstantRcs,
    CosineLobeRcs,
    GenerationProfile,
    Origin,
    ScatteringPoint,
    Side,
    SubLink,
    TableRcs,
    concatenate,
    cross_polarization_matrix,
    load_rcs_table_csv,
    merge_paths,
    multi_point_target,
    sample_clusters,
    spreading_gain,
    unit_vector,
    with_los_ray,
)
from isacsim.core import ORIGINS
from isacsim.target import _rcs_linear


def make_sublink(side, delays, seed=0, az_lo=0.0):
    """Sub-link with one cluster of deterministic co-polar rays."""
    n = len(delays)
    az = az_lo + np.random.default_rng(seed).uniform(0, 2 * math.pi, (n, 2))
    return SubLink(side, ClusterSet(power=1.0 / n, delay=delays,
                                    aod=np.stack([az[:, 0], np.zeros(n)], axis=1),
                                    aoa=np.stack([az[:, 1], np.zeros(n)], axis=1)))


def point(sigma_dbsm=0.0):
    return ScatteringPoint(position=[0.0, 0.0, 0.0], rcs_model=ConstantRcs(sigma_dbsm))


WL = 0.0434482  # ~6.9 GHz


def rcs_linear(model, g_in, g_out):
    """The linear RCS of one (azimuth, elevation) pair."""
    return float(_rcs_linear(model, np.array([g_in]), np.array([g_out]))[0, 0])


class TestRcsEval:
    def test_constant_zero_dbsm_is_one_square_meter(self):
        assert rcs_linear(ConstantRcs(0.0), (0, 0), (1, 0)) == 1.0

    def test_table_single_entry_linearizes(self):
        t = TableRcs([0.0], [0.0], [0.0], [0.0], np.array([[[[8.48]]]]))
        assert rcs_linear(t, (0, 0), (0, 0)) == pytest.approx(7.046930689671469)

    def test_cosine_lobe_degenerate_exponent(self):
        m = CosineLobeRcs(3.0, exponent=0.0)
        for az in (0.0, 2.0, 4.0):
            assert rcs_linear(m, (az, 0), (0, 0)) == pytest.approx(10 ** 0.3)


def reference_concatenate(a, b, sp, wl, tx, rx, t):
    """One ray pair at a time, over the rows of the two ray tables:
    (delay, amp, doppler, (aod azimuth, elevation), (aoa azimuth,
    elevation), bounce order) per pair, in delay order."""
    k = 2.0 * math.pi / wl
    ra, rb = a.clusters, b.clusters
    out = []
    for i in range(len(ra)):
        aod1, aoa1 = Angle3D(*ra.aod[i]), Angle3D(*ra.aoa[i])
        for j in range(len(rb)):
            aod2, aoa2 = Angle3D(*rb.aod[j]), Angle3D(*rb.aoa[j])
            sigma = rcs_linear(sp.rcs_model, ra.aoa[i], rb.aod[j])
            gain = complex(rx.fields([rb.aoa[j]])[0]
                           @ cross_polarization_matrix(rb.xpr[j], rb.phases[j])
                           @ sp.cpm_k @ cross_polarization_matrix(ra.xpr[i], ra.phases[i])
                           @ tx.fields([ra.aod[i]])[0])
            phase = k * (unit_vector(aoa1) @ sp.position + unit_vector(aod2) @ sp.position)
            doppler = ra.doppler[i] + rb.doppler[j]
            amp = (math.sqrt(ra.power[i] * rb.power[j] * sigma) * gain
                   * math.sqrt(spreading_gain(wl)) * np.exp(1j * phase)
                   * np.exp(1j * 2.0 * math.pi * doppler * t))
            out.append((ra.delay[i] + rb.delay[j], amp, doppler,
                        (aod1.azimuth, aod1.elevation), (aoa2.azimuth, aoa2.elevation),
                        ra.bounce_order[i] + rb.bounce_order[j]))
    return sorted(out, key=lambda row: row[0])


class NanRcs:
    """An RCS model that is non-finite at given (in, out) pair indices."""

    def __init__(self, *cells):
        self.cells = cells

    def eval_dbsm_pairs(self, angles_in, angles_out):
        out = np.zeros((len(angles_in), len(angles_out)))
        for cell, value in zip(self.cells, (np.nan, np.inf)):
            out[cell] = value
        return out


class TestConcatenate:
    @pytest.mark.parametrize("rcs", [
        ConstantRcs(8.48),
        CosineLobeRcs(3.0, exponent=2.0, axis=Angle3D(1.0, 0.1)),
        TableRcs(np.linspace(0.0, 6.0, 7), [0.0], np.linspace(0.5, 5.5, 4),
                 [-0.1, 0.0, 0.1],
                 np.random.default_rng(3).uniform(-10.0, 10.0, (7, 1, 4, 3))),
    ], ids=["constant", "cosine_lobe", "table"])
    def test_matches_per_pair_reference(self, rcs):
        def link(side, seed):
            profile = GenerationProfile(n_clusters=3, rays_per_cluster=4,
                                        doppler_max_hz=300.0, ray_delay_scale_s=2e-9,
                                        seed=seed)
            los = ClusterSet(power=1.0, delay=12e-9, aod=(0.4, 0.05), aoa=(3.5, -0.05),
                             doppler=40.0, bounce_order=0)
            return SubLink(side, with_los_ray(sample_clusters(profile), los, 4.0))

        tx = AntennaModel(kind="horn", hpbw_deg=15.0, peak_gain_db=20.0,
                          boresight=Angle3D(0.7, 0.1))
        rx = AntennaModel(kind="horn", hpbw_deg=30.0, peak_gain_db=10.0,
                          boresight=Angle3D(4.0, -0.2))
        sp = ScatteringPoint(position=[4.6, 2.5, 1.5], rcs_model=rcs,
                             cpm_k=[[0.9, 0.2j], [0.1 - 0.3j, -0.7]])
        a, b = link(Side.TX_TO_TARGET, 1), link(Side.TARGET_TO_RX, 2)
        cir = concatenate(a, b, sp, WL, tx, rx, t=1.3e-3)
        want = reference_concatenate(a, b, sp, WL, tx, rx, 1.3e-3)
        assert len(cir) == len(a.clusters) * len(b.clusters)
        got = zip(cir.delay.tolist(), cir.doppler.tolist(),
                  zip(cir.aod_az.tolist(), cir.aod_el.tolist()),
                  zip(cir.aoa_az.tolist(), cir.aoa_el.tolist()),
                  cir.bounce_order.tolist(), [ORIGINS[o] for o in cir.origin_code])
        assert list(got) == [(delay, doppler, aod, aoa, order, Origin.TARGET)
                             for delay, _, doppler, aod, aoa, order in want]
        np.testing.assert_allclose(cir.amp, [row[1] for row in want], rtol=1e-11)

    def test_non_finite_rcs_names_first_angle_pair(self):
        a = make_sublink(Side.TX_TO_TARGET, [1e-9, 2e-9, 3e-9], seed=1)
        b = make_sublink(Side.TARGET_TO_RX, [4e-9, 5e-9], seed=2)
        sp = ScatteringPoint(position=[0.0, 0.0, 0.0], rcs_model=NanRcs((1, 1), (2, 0)))
        with pytest.raises(ValueError) as info:
            concatenate(a, b, sp, WL)
        assert str(info.value) == (f"RCS model returned non-finite value for "
                                   f"in={Angle3D(*a.clusters.aoa[1])} "
                                   f"out={Angle3D(*b.clusters.aod[1])}")
        with pytest.raises(ValueError, match="non-finite value for in=Angle3D"):
            concatenate(a, b, point(float("nan")), WL)

    def test_delay_additivity_single_pair(self):
        a = make_sublink(Side.TX_TO_TARGET, [10e-9])
        b = make_sublink(Side.TARGET_TO_RX, [20e-9])
        cir = concatenate(a, b, point(0.0), WL)
        assert len(cir) == 1
        assert cir.delay[0] == 10e-9 + 20e-9  # exact float sum
        # |amp|^2 = p1 p2 sigma lambda^2/4pi with sigma = 1
        assert cir.powers()[0] == pytest.approx(spreading_gain(WL), rel=1e-12)

    def test_cardinality_4x15(self):
        # mirrors a 4-transmitter by 15-receiver measurement grid
        a = make_sublink(Side.TX_TO_TARGET, np.linspace(10e-9, 40e-9, 4), seed=1)
        b = make_sublink(Side.TARGET_TO_RX, np.linspace(5e-9, 75e-9, 15), seed=2)
        cir = concatenate(a, b, point(), WL)
        assert len(cir) == 60

    def test_los_delay_offset_is_exact(self):
        # a 17.5 ns first-hop line-of-sight shifts every second-hop delay
        # by exactly 17.5 ns
        b_delays = [33.3e-9, 47.0e-9, 60.2e-9, 88.8e-9]
        a = make_sublink(Side.TX_TO_TARGET, [17.5e-9])
        b = make_sublink(Side.TARGET_TO_RX, b_delays, seed=3)
        cir = concatenate(a, b, point(), WL)
        got = sorted(cir.delay.tolist())
        np.testing.assert_allclose(got, np.sort(b_delays) + 17.5e-9, rtol=0, atol=1e-18)

    def test_delay_additivity_exhaustive(self):
        rng = np.random.default_rng(7)
        da = rng.uniform(0, 100e-9, 5)
        db = rng.uniform(0, 100e-9, 6)
        a = make_sublink(Side.TX_TO_TARGET, da, seed=4)
        b = make_sublink(Side.TARGET_TO_RX, db, seed=5)
        cir = concatenate(a, b, point(), WL)
        expected = sorted(float(x + y) for x in da for y in db)
        np.testing.assert_allclose(sorted(cir.delay.tolist()), expected, atol=1e-20)

    def test_angle_inheritance(self):
        a = make_sublink(Side.TX_TO_TARGET, [1e-9, 2e-9], seed=6)
        b = make_sublink(Side.TARGET_TO_RX, [3e-9, 4e-9], seed=7)
        cir = concatenate(a, b, point(), WL)
        aods = set(zip(cir.aod_az.tolist(), cir.aod_el.tolist()))
        aoas = set(zip(cir.aoa_az.tolist(), cir.aoa_el.tolist()))
        assert aods == set(map(tuple, a.clusters.aod.tolist()))
        assert aoas == set(map(tuple, b.clusters.aoa.tolist()))

    def test_doppler_adds(self):
        a = SubLink(Side.TX_TO_TARGET, ClusterSet(power=1.0, delay=1e-9, aod=(0, 0),
                                                  aoa=(1, 0), doppler=100.0))
        b = SubLink(Side.TARGET_TO_RX, ClusterSet(power=1.0, delay=2e-9, aod=(2, 0),
                                                  aoa=(3, 0), doppler=-30.0))
        cir = concatenate(a, b, point(), WL)
        assert cir.doppler[0] == pytest.approx(70.0)

    def test_bounce_orders_add_without_target_hop(self):
        a = SubLink(Side.TX_TO_TARGET, ClusterSet(power=1.0, delay=1e-9, aod=(0, 0),
                                                  aoa=(1, 0), bounce_order=0))
        b = SubLink(Side.TARGET_TO_RX, ClusterSet(power=1.0, delay=2e-9, aod=(2, 0),
                                                  aoa=(3, 0), bounce_order=0))
        cir = concatenate(a, b, point(), WL)
        assert cir.bounce_order[0] == 0  # LOS+LOS concatenation is direct

    def test_sides_enforced(self):
        a = make_sublink(Side.TX_TO_TARGET, [1e-9])
        with pytest.raises(ValueError):
            concatenate(a, a, point(), WL)

    def test_power_product_law_against_dense_convolution(self):
        # sparse pairing must agree with an FFT dense-grid convolution
        # oracle once delays live on a common grid
        rng = np.random.default_rng(17)
        grid_step = 0.5e-9
        sigma_dbsm = 6.0
        for trial in range(5):
            na, nb = rng.integers(2, 20, 2)
            da = rng.integers(0, 200, na) * grid_step
            db = rng.integers(0, 200, nb) * grid_step
            amps_a = rng.normal(size=na) + 1j * rng.normal(size=na)
            amps_b = rng.normal(size=nb) + 1j * rng.normal(size=nb)

            # ray powers are arbitrary; all four phases carry the amplitude's
            a = SubLink(Side.TX_TO_TARGET, ClusterSet(
                power=np.abs(amps_a) ** 2, delay=da, aod=(0.1, 0), aoa=(0.2, 0),
                phases=np.angle(amps_a)[:, None]))
            b = SubLink(Side.TARGET_TO_RX, ClusterSet(
                power=np.abs(amps_b) ** 2, delay=db, aod=(0.3, 0), aoa=(0.4, 0),
                phases=np.angle(amps_b)[:, None]))
            cir = concatenate(a, b, point(sigma_dbsm), WL)

            # dense oracle: quantize each sub-link to the grid, FFT-convolve
            n = 512
            ga = np.zeros(n, dtype=complex)
            gb = np.zeros(n, dtype=complex)
            for x, d in zip(amps_a, da):
                ga[int(round(d / grid_step))] += x
            for x, d in zip(amps_b, db):
                gb[int(round(d / grid_step))] += x
            conv = np.fft.ifft(np.fft.fft(ga, 2 * n) * np.fft.fft(gb, 2 * n))
            scale = 10 ** (sigma_dbsm / 10.0) * spreading_gain(WL)
            oracle_power = float(np.sum(np.abs(conv) ** 2)) * scale

            merged = merge_paths(cir, grid_step / 2, 10.0)
            sparse_power = sum(merged.powers().tolist())
            assert sparse_power == pytest.approx(oracle_power, rel=1e-6)


def _column(draw, n, lo, hi):
    return draw(st.lists(st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n))


@st.composite
def ray_tables(draw):
    """A ray table of 1 to 12 co-polar rays with random delays, Dopplers,
    powers, phases and angles."""
    n = draw(st.integers(1, 12))
    angles = lambda: np.stack([_column(draw, n, -10.0, 10.0),
                               _column(draw, n, -math.pi / 2, math.pi / 2)], axis=1)
    return ClusterSet(power=_column(draw, n, 0.0, 10.0), delay=_column(draw, n, 0.0, 1e-6),
                      aod=angles(), aoa=angles(), doppler=_column(draw, n, -1e4, 1e4),
                      phases=np.reshape(_column(draw, 4 * n, -math.pi, math.pi), (n, 4)))


class TestConcatenationLaws:
    @settings(max_examples=60, deadline=None)
    @given(ray_tables(), ray_tables(), st.floats(-20.0, 40.0))
    def test_delay_doppler_and_power_laws(self, rays_a, rays_b, sigma_dbsm):
        a, b = SubLink(Side.TX_TO_TARGET, rays_a), SubLink(Side.TARGET_TO_RX, rays_b)
        sp = point(sigma_dbsm)
        cir = concatenate(a, b, sp, WL)
        want = reference_concatenate(a, b, sp, WL, OMNI, OMNI, 0.0)
        # sums of the two rays' delays and Dopplers, exactly
        assert cir.delay.tolist() == [row[0] for row in want]
        assert cir.doppler.tolist() == [row[2] for row in want]
        # identity CPM_k and XPR 1e12: |amp|^2 = p_a p_b sigma lambda^2 / 4 pi
        pairs = sorted(((da + db, pa * pb) for da, pa in zip(rays_a.delay, rays_a.power)
                        for db, pb in zip(rays_b.delay, rays_b.power)), key=lambda r: r[0])
        law = np.array([p for _, p in pairs]) * 10.0 ** (sigma_dbsm / 10.0) * spreading_gain(WL)
        np.testing.assert_allclose(cir.powers(), law, rtol=1e-9, atol=0.0)


class TestMultiPointTarget:
    def test_single_point_reduces_to_concatenate(self):
        a = make_sublink(Side.TX_TO_TARGET, [10e-9], seed=8)
        b = make_sublink(Side.TARGET_TO_RX, [20e-9], seed=9)
        sp = point(3.0)
        direct = concatenate(a, b, sp, WL)
        combined = multi_point_target([sp], [(a, b)], WL, pl_tar_db=[20.0])
        assert len(combined) == len(direct)
        assert combined.amp[0] == pytest.approx(direct.amp[0] * 0.1)

    def test_two_identical_points_double_amplitude(self):
        a = make_sublink(Side.TX_TO_TARGET, [10e-9], seed=8)
        b = make_sublink(Side.TARGET_TO_RX, [20e-9], seed=9)
        sp = point()
        one = multi_point_target([sp], [(a, b)], WL)
        two = multi_point_target([sp, sp], [(a, b), (a, b)], WL)
        assert len(two) == 1
        assert abs(two.amp[0]) == pytest.approx(2 * abs(one.amp[0]))
        # +6.02 dB
        ratio_db = 10 * math.log10(two.powers()[0] / one.powers()[0])
        assert ratio_db == pytest.approx(6.0206, abs=1e-3)

    def test_path_count_sums_over_points(self):
        rng = np.random.default_rng(10)
        points, links, expected = [], [], 0
        for k in range(3):
            na, nb = rng.integers(2, 6, 2)
            links.append((
                make_sublink(Side.TX_TO_TARGET, rng.uniform(0, 5e-8, na), seed=20 + k),
                make_sublink(Side.TARGET_TO_RX, rng.uniform(0, 5e-8, nb), seed=40 + k),
            ))
            points.append(point())
            expected += na * nb
        cir = multi_point_target(points, links, WL)
        assert len(cir) == expected

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            multi_point_target([], [], WL)


class TestRcsTableCsv:
    def test_round_trip(self, tmp_path):
        csv_path = tmp_path / "rcs.csv"
        csv_path.write_text(
            "az_in_deg,el_in_deg,az_out_deg,el_out_deg,rcs_dbsm\n"
            "0,0,0,0,5.0\n"
            "0,0,90,0,8.0\n"
        )
        t = load_rcs_table_csv(csv_path)
        got = t.eval_dbsm_pairs([[0, 0]], [[0, 0], [math.radians(90), 0], [math.radians(45), 0]])
        np.testing.assert_allclose(got, [[5.0, 8.0, 6.5]], rtol=1e-12)

    def test_incomplete_grid_rejected(self, tmp_path):
        csv_path = tmp_path / "rcs.csv"
        csv_path.write_text(
            "az_in_deg,el_in_deg,az_out_deg,el_out_deg,rcs_dbsm\n"
            "0,0,0,0,5.0\n"
            "10,0,90,0,8.0\n"
        )
        with pytest.raises(ValueError, match="do not form a full regular grid"):
            load_rcs_table_csv(csv_path)

    @pytest.mark.parametrize("text", ["", "az_in_deg,el_in_deg,az_out_deg,el_out_deg,rcs_dbsm\n\n"])
    def test_empty_table_rejected(self, tmp_path, text):
        csv_path = tmp_path / "rcs.csv"
        csv_path.write_text(text)
        with pytest.raises(ValueError, match="is empty"):
            load_rcs_table_csv(csv_path)

    def test_duplicate_row_rejected(self, tmp_path):
        # four rows over a 2 x 2 grid, but (0, 0, 0, 0) twice and (10, 0, 90, 0) missing
        csv_path = tmp_path / "rcs.csv"
        csv_path.write_text(
            "az_in_deg,el_in_deg,az_out_deg,el_out_deg,rcs_dbsm\n"
            "0,0,0,0,5.0\n0,0,90,0,8.0\n10,0,0,0,1.0\n0,0,0,0,2.0\n")
        with pytest.raises(ValueError, match="duplicate or missing grid rows"):
            load_rcs_table_csv(csv_path)

    def test_columns_found_by_header_name(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = [(a, e, b, f) for a in (0.0, 120.0, 240.0) for e in (-10.0, 10.0)
                for b in (0.0, 90.0) for f in (0.0,)]
        vals = rng.uniform(-10.0, 10.0, len(grid)).round(3)
        rows = [f"{v},{f},{a},x,{b},{e}" for (a, e, b, f), v in zip(grid, vals)]
        rng.shuffle(rows)
        csv_path = tmp_path / "rcs.csv"
        csv_path.write_text("rcs_dbsm,el_out_deg,az_in_deg,note,az_out_deg,el_in_deg\n"
                            + "\n".join(rows) + "\n")
        t = load_rcs_table_csv(csv_path)
        assert t.values_dbsm.shape == (3, 2, 2, 1)
        np.testing.assert_array_equal(t.az_in, np.radians([0.0, 120.0, 240.0]))
        np.testing.assert_array_equal(t.values_dbsm.ravel(), vals)

    def test_missing_column_named(self, tmp_path):
        csv_path = tmp_path / "rcs.csv"
        csv_path.write_text("az_in_deg,el_in_deg,az_out_deg,rcs_dbsm\n0,0,0,5.0\n")
        with pytest.raises(ValueError, match="lacks column.*el_out_deg"):
            load_rcs_table_csv(csv_path)
