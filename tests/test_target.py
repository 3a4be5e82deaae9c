import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim import (
    OMNI,
    AntennaModel,
    ClusterSet,
    ConstantRcs,
    GenerationProfile,
    ScatteringPoint,
    Side,
    SubLink,
    TableRcs,
    concatenate,
    cross_polarization_matrix,
    generate_pn,
    load_rcs_table_csv,
    merge_paths,
    multi_point_target,
    process_capture,
    ray_coefficients,
    sample_clusters,
    spreading_gain,
    transmit_through,
    unit_vectors,
    with_los_ray,
)
from isacsim.core import _DTYPES, C_LIGHT, COLUMNS, angle_from_vector
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


# the omni receive field (F_theta, F_phi) of the synthesis: the turntable
# scan applies the receive pattern
F_RX = np.array([1.0, 0.0])


def tx_field(antenna, angle):
    """The single-polarized Tx field (g, 0) toward one (azimuth, elevation) pair."""
    return np.array([antenna.field_gain([antenna.boresight], [angle])[0, 0], 0.0])


def reference_concatenate(a, b, sp, wl, tx):
    """One ray pair at a time, over the rows of the two ray tables, with
    the full 38.901 chain F_rx^T . CPM_2 . CPM_1 . F_tx and the Doppler of
    the point's velocity on both target-side directions: (delay, amp,
    doppler, (aod azimuth, elevation), (aoa azimuth, elevation), bounce
    order) per pair, in delay order."""
    k = 2.0 * math.pi / wl
    ra, rb = a.clusters, b.clusters
    out = []
    for i in range(len(ra)):
        aod1, aoa1 = tuple(ra.aod[i].tolist()), tuple(ra.aoa[i].tolist())
        for j in range(len(rb)):
            aod2, aoa2 = tuple(rb.aod[j].tolist()), tuple(rb.aoa[j].tolist())
            sigma = rcs_linear(sp.rcs_model, ra.aoa[i], rb.aod[j])
            gain = complex(F_RX @ cross_polarization_matrix(rb.xpr[j], rb.phases[j])
                           @ cross_polarization_matrix(ra.xpr[i], ra.phases[i])
                           @ tx_field(tx, ra.aod[i]))
            u_in, u_out = unit_vectors([aoa1, aod2])
            phase = k * (u_in @ sp.position + u_out @ sp.position)
            doppler = (u_in @ sp.velocity + u_out @ sp.velocity) / wl
            amp = (math.sqrt(ra.power[i] * rb.power[j] * sigma) * gain
                   * math.sqrt(spreading_gain(wl)) * np.exp(1j * phase))
            out.append((ra.delay[i] + rb.delay[j], amp, doppler, aod1, aoa2,
                        ra.bounce_order[i] + rb.bounce_order[j]))
    return sorted(out, key=lambda row: row[0])


def assert_dopplers(got, want, velocity, wl):
    """Equal Doppler columns, to rel 1e-12 of the largest shift that the
    velocity can give, 2 |v| / lambda: the two hops' projections may
    cancel, so the rounding of their sum is bounded by their scale, not
    by the sum itself."""
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * 2.0 * np.linalg.norm(velocity) / wl)


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
        TableRcs(np.linspace(0.0, 6.0, 7), [0.0], np.linspace(0.5, 5.5, 4),
                 [-0.1, 0.0, 0.1],
                 np.random.default_rng(3).uniform(-10.0, 10.0, (7, 1, 4, 3))),
    ], ids=["constant", "table"])
    def test_matches_per_pair_reference(self, rcs):
        def link(side, seed):
            profile = GenerationProfile(n_clusters=3, rays_per_cluster=4)
            los = ClusterSet(power=1.0, delay=12e-9, aod=(0.4, 0.05), aoa=(3.5, -0.05),
                             bounce_order=0)
            return SubLink(side, with_los_ray(sample_clusters(profile, seed), los, 4.0))

        tx = AntennaModel(kind="horn", hpbw_deg=15.0, peak_gain_db=20.0,
                          boresight=(0.7, 0.1))
        sp = ScatteringPoint(position=[4.6, 2.5, 1.5], velocity=[1.5, -0.8, 0.3],
                             rcs_model=rcs)
        a, b = link(Side.TX_TO_TARGET, 1), link(Side.TARGET_TO_RX, 2)
        cir = concatenate(a, b, sp, WL, tx)
        want = reference_concatenate(a, b, sp, WL, tx)
        assert len(cir) == len(a.clusters) * len(b.clusters)
        got = zip(cir.delay.tolist(),
                  zip(cir.aod_az.tolist(), cir.aod_el.tolist()),
                  zip(cir.aoa_az.tolist(), cir.aoa_el.tolist()),
                  cir.bounce_order.tolist())
        assert list(got) == [(delay, aod, aoa, order)
                             for delay, _, _, aod, aoa, order in want]
        assert_dopplers(cir.doppler, [row[2] for row in want], sp.velocity, WL)
        assert np.all(cir.doppler != 0.0)  # every ray that touches the target shifts
        np.testing.assert_allclose(cir.amp, [row[1] for row in want], rtol=1e-11)

    def test_non_finite_rcs_names_first_angle_pair(self):
        a = make_sublink(Side.TX_TO_TARGET, [1e-9, 2e-9, 3e-9], seed=1)
        b = make_sublink(Side.TARGET_TO_RX, [4e-9, 5e-9], seed=2)
        sp = ScatteringPoint(position=[0.0, 0.0, 0.0], rcs_model=NanRcs((1, 1), (2, 0)))
        with pytest.raises(ValueError) as info:
            concatenate(a, b, sp, WL)
        assert str(info.value) == (f"RCS model returned non-finite value for "
                                   f"in={tuple(a.clusters.aoa[1].tolist())} "
                                   f"out={tuple(b.clusters.aod[1].tolist())}")
        # a constant RCS is refused when it is built, before any concatenation
        with pytest.raises(ValueError, match="^sigma_dbsm must be finite, got nan$"):
            concatenate(a, b, point(float("nan")), WL)

    def test_delay_additivity_single_pair(self):
        a = make_sublink(Side.TX_TO_TARGET, [10e-9])
        b = make_sublink(Side.TARGET_TO_RX, [20e-9])
        cir = concatenate(a, b, point(0.0), WL)
        assert len(cir) == 1
        assert cir.delay[0] == 10e-9 + 20e-9  # exact float sum
        # |amp|^2 = p1 p2 sigma 4pi/lambda^2 with sigma = 1, times (1 + 1/XPR)^2:
        # the default XPR of 1e12 leaks into the co-polar chain
        assert cir.powers()[0] == pytest.approx(spreading_gain(WL) * (1.0 + 1e-12) ** 2,
                                                rel=1e-14, abs=0.0)

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
        # each hop shifts by the velocity projected on its target-side
        # direction: the AoA at the target, then the AoD from it
        v = np.array([3.0, -2.0, 0.5])
        a = SubLink(Side.TX_TO_TARGET, ClusterSet(power=1.0, delay=1e-9, aod=(0, 0),
                                                  aoa=(1, 0)))
        b = SubLink(Side.TARGET_TO_RX, ClusterSet(power=1.0, delay=2e-9, aod=(2, 0.3),
                                                  aoa=(3, 0)))
        cir = concatenate(a, b, ScatteringPoint(position=[0, 0, 0], velocity=v), WL)
        hop_a = v @ [math.cos(1), math.sin(1), 0.0]
        hop_b = v @ [math.cos(0.3) * math.cos(2), math.cos(0.3) * math.sin(2), math.sin(0.3)]
        assert cir.doppler[0] == pytest.approx((hop_a + hop_b) / WL, rel=1e-12)

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
def ray_tables(draw, cross_polar=False):
    """A ray table of 1 to 12 rays with random delays, powers, phases and
    angles: co-polar (XPR 1e12), or with random XPRs in
    [0.1, 100] where ``cross_polar``."""
    n = draw(st.integers(1, 12))
    angles = lambda: np.stack([_column(draw, n, -10.0, 10.0),
                               _column(draw, n, -math.pi / 2, math.pi / 2)], axis=1)
    return ClusterSet(power=_column(draw, n, 0.0, 10.0), delay=_column(draw, n, 0.0, 1e-6),
                      aod=angles(), aoa=angles(),
                      phases=np.reshape(_column(draw, 4 * n, -math.pi, math.pi), (n, 4)),
                      xpr=_column(draw, n, 0.1, 100.0) if cross_polar else 1e12)


def vectors(bound):
    """Three floats, each within +-bound: a position or a velocity."""
    return st.lists(st.floats(-bound, bound), min_size=3, max_size=3)


@st.composite
def horns(draw):
    """A horn with a random beamwidth, peak gain and boresight."""
    return AntennaModel(kind="horn", hpbw_deg=draw(st.floats(5.0, 120.0)),
                        peak_gain_db=draw(st.floats(-10.0, 30.0)),
                        boresight=(draw(st.floats(0.0, 2 * math.pi)),
                                   draw(st.floats(-math.pi / 2, math.pi / 2))))


@st.composite
def rcs_models(draw):
    """A constant RCS, or a table over 1 to 3 values per angle axis."""
    if draw(st.booleans()):
        return ConstantRcs(draw(st.floats(-20.0, 40.0)))
    axes = [np.cumsum(_column(draw, draw(st.integers(1, 3)), 0.1, 2.0)) - 2.0
            for _ in range(4)]
    values = np.reshape(_column(draw, math.prod(map(len, axes)), -20.0, 20.0),
                        tuple(map(len, axes)))
    return TableRcs(*axes, values)


def _one_powered_ray(n, i, power, xpr, aod=(0.0, 0.0), phase=0.0):
    """A ray table of ``n`` rays in which only ray ``i`` carries power."""
    hot = np.arange(n) == i
    return ClusterSet(power=np.where(hot, power, 0.0), delay=0.0,
                      aod=np.where(hot[:, None], aod, 0.0), aoa=(0.0, 0.0),
                      xpr=np.where(hot, xpr, 1.0),
                      phases=np.where(hot[:, None], [phase, 0.0, 0.0, 0.0], 0.0))


# Pairs whose error scale lies below this are in or near the subnormal
# range, where two correct evaluation orders differ by a few subnormal
# ulps; they are held to an absolute bound instead of a relative one.
TINY = 1e-290


class TestConcatenationLaws:
    @settings(max_examples=60, deadline=None)
    @given(ray_tables(), ray_tables(), st.floats(-20.0, 40.0))
    def test_delay_doppler_and_power_laws(self, rays_a, rays_b, sigma_dbsm):
        a, b = SubLink(Side.TX_TO_TARGET, rays_a), SubLink(Side.TARGET_TO_RX, rays_b)
        sp = point(sigma_dbsm)
        cir = concatenate(a, b, sp, WL)
        want = reference_concatenate(a, b, sp, WL, OMNI)
        # sums of the two rays' delays, exactly; a still target shifts nothing
        assert cir.delay.tolist() == [row[0] for row in want]
        assert np.all(cir.doppler == 0.0)
        # XPR 1e12 and an omni Tx: |amp|^2 = p_a p_b sigma 4 pi / lambda^2
        pairs = sorted(((da + db, pa * pb) for da, pa in zip(rays_a.delay, rays_a.power)
                        for db, pb in zip(rays_b.delay, rays_b.power)), key=lambda r: r[0])
        law = np.array([p for _, p in pairs]) * 10.0 ** (sigma_dbsm / 10.0) * spreading_gain(WL)
        np.testing.assert_allclose(cir.powers(), law, rtol=1e-9, atol=0.0)

    @settings(max_examples=60, deadline=None)
    # every speed stays below c: |v| <= sqrt(3) * 1e8 m/s
    @given(ray_tables(), ray_tables(), vectors(100.0), vectors(1e8))
    def test_doppler_sums_the_two_hops_projections(self, rays_a, rays_b, position, velocity):
        a, b = SubLink(Side.TX_TO_TARGET, rays_a), SubLink(Side.TARGET_TO_RX, rays_b)
        moving = ScatteringPoint(position=position, velocity=velocity)
        want = [row[2] for row in reference_concatenate(a, b, moving, WL, OMNI)]
        assert_dopplers(concatenate(a, b, moving, WL).doppler, want, moving.velocity, WL)
        still = concatenate(a, b, ScatteringPoint(position=position), WL)
        assert np.all(still.doppler == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(ray_tables(cross_polar=True), ray_tables(cross_polar=True), horns(), rcs_models(),
           vectors(10.0), vectors(10.0))
    # the 5-degree horn's field gain toward the powered AoD is 1.45e-313, subnormal
    @example(_one_powered_ray(9, 6, 1.125, 15.0, (4.190640214454691, 1.101307130501577),
                              3.0897511604024075),
             _one_powered_ray(9, 8, 7.0, 71.0),
             AntennaModel(kind="horn", hpbw_deg=5.0, boresight=(0.59375, 0.0)),
             TableRcs([-1.0], [-1.0], [-1.0], [-1.0], np.zeros((1, 1, 1, 1))),
             [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    def test_single_polarized_synthesis_matches_matrix_chain(self, rays_a, rays_b, tx, rcs,
                                                             position, velocity):
        a, b = SubLink(Side.TX_TO_TARGET, rays_a), SubLink(Side.TARGET_TO_RX, rays_b)
        sp = ScatteringPoint(position=position, velocity=velocity, rcs_model=rcs)
        cir = concatenate(a, b, sp, WL, tx)
        want = np.array([row[1] for row in reference_concatenate(a, b, sp, WL, tx)])
        # the scale of each pair's rounding error: the chain's terms taken
        # with their moduli, so a pair whose terms cancel is held to it too
        cross = lambda rays: 1.0 + 1.0 / np.sqrt(rays.xpr)
        g = tx.field_gain([tx.boresight], rays_a.aod)[0]
        scale = (np.sqrt(np.outer(rays_a.power, rays_b.power) * _rcs_linear(rcs, rays_a.aoa,
                                                                            rays_b.aod))
                 * np.outer(g * cross(rays_a), cross(rays_b)) * math.sqrt(spreading_gain(WL)))
        order = np.argsort(np.add.outer(rays_a.delay, rays_b.delay), axis=None, kind="stable")
        scale = scale.ravel()[order]
        assert np.all(np.abs(cir.amp - want) <= np.where(scale >= TINY, 1e-12 * scale, 1e-300))
        # one hop on its own: sqrt(p) F_rx^T . CPM . F_tx, with no Doppler phase
        coeffs = ray_coefficients(rays_a, tx)
        chain = [math.sqrt(p) * complex(F_RX @ cross_polarization_matrix(x, ph)
                                        @ tx_field(tx, aod))
                 for p, x, ph, aod in zip(rays_a.power, rays_a.xpr, rays_a.phases, rays_a.aod)]
        np.testing.assert_allclose(coeffs, chain, rtol=1e-12, atol=0.0)


def one_ray(side, aod=(0.0, 0.0), aoa=(0.0, 0.0), delay=1e-9):
    """A sub-link of one ray with the given angles."""
    return SubLink(side, ClusterSet(power=1.0, delay=delay, aod=aod, aoa=aoa, bounce_order=0))


class TestConcatenateDoppler:
    """The one Doppler rule of concatenate."""

    def test_radial_motion(self):
        # Tx and Rx both lie along +x from the target, which moves toward
        # them at 3 m/s: each hop shifts by 3 m/s over a 1 cm wavelength
        for vx, want in ((3.0, 600.0), (-3.0, -600.0)):
            sp = ScatteringPoint(position=[0, 0, 0], velocity=[vx, 0, 0])
            cir = concatenate(one_ray(Side.TX_TO_TARGET), one_ray(Side.TARGET_TO_RX), sp, 0.01)
            assert cir.doppler[0] == pytest.approx(want, rel=1e-12)

    def test_transverse_motion_is_zero(self):
        for v in ([0, 5.0, 0], [0, 0, -2.0]):
            sp = ScatteringPoint(position=[0, 0, 0], velocity=v)
            cir = concatenate(one_ray(Side.TX_TO_TARGET), one_ray(Side.TARGET_TO_RX), sp, 0.01)
            assert cir.doppler[0] == 0.0

    @pytest.mark.parametrize("velocity", [[3.0, -2.0, 0.5], [-40.0, 10.0, 0.0]])
    def test_slow_time_fft_recovers_the_los_doppler(self, velocity):
        # K snapshots of a moving, LOS-only target, one every T: snapshot k
        # turns the path by its own Doppler column, amp * exp(2 pi j f_D k T),
        # and goes through the sounder; the FFT over the K recovered
        # amplitudes peaks within one bin of the LOS x LOS Doppler
        tx, rx, target = np.array([0, 0, 1.5]), np.array([7.45, 0, 1.5]), np.array([4.45, 1, 1.5])
        a = one_ray(Side.TX_TO_TARGET, aod=angle_from_vector(target - tx),
                    aoa=angle_from_vector(tx - target),
                    delay=np.linalg.norm(target - tx) / C_LIGHT)
        b = one_ray(Side.TARGET_TO_RX, aod=angle_from_vector(rx - target),
                    aoa=angle_from_vector(target - rx),
                    delay=np.linalg.norm(rx - target) / C_LIGHT)
        sp = ScatteringPoint(position=target, velocity=velocity)
        k_snapshots, period = 128, 1e-3  # 7.8 Hz bins, +-500 Hz unaliased
        pn = generate_pn(7, chip_rate=1e9)
        cir = concatenate(a, b, sp, WL)
        doppler = cir.doppler[0]
        amps = []
        for k in range(k_snapshots):
            snapshot = cir.scaled(np.exp(2j * math.pi * doppler * k * period))
            recovered = process_capture(transmit_through(snapshot, pn, None, None)).recovered
            amps.append(max(recovered, key=lambda path: abs(path[1]))[1])
        assert abs(doppler) > 1.0 / (k_snapshots * period)  # more than one bin from 0 Hz
        freqs = np.fft.fftfreq(k_snapshots, period)
        peak = freqs[np.argmax(np.abs(np.fft.fft(amps)))]
        assert abs(peak - doppler) <= 1.0 / (k_snapshots * period)


class TestMultiPointTarget:
    def test_single_point_reduces_to_concatenate(self):
        a = make_sublink(Side.TX_TO_TARGET, [10e-9], seed=8)
        b = make_sublink(Side.TARGET_TO_RX, [20e-9], seed=9)
        sp = point(3.0)
        direct = concatenate(a, b, sp, WL)
        combined = multi_point_target([(sp, a, b, 20.0)], WL, OMNI)
        assert len(combined) == len(direct)
        assert combined.amp[0] == pytest.approx(direct.amp[0] * 0.1)

    def test_two_identical_points_double_amplitude(self):
        a = make_sublink(Side.TX_TO_TARGET, [10e-9], seed=8)
        b = make_sublink(Side.TARGET_TO_RX, [20e-9], seed=9)
        sp = point()
        one = multi_point_target([(sp, a, b, 0.0)], WL, OMNI)
        two = multi_point_target([(sp, a, b, 0.0)] * 2, WL, OMNI)
        assert len(two) == 1
        assert abs(two.amp[0]) == pytest.approx(2 * abs(one.amp[0]))
        # +6.02 dB
        ratio_db = 10 * math.log10(two.powers()[0] / one.powers()[0])
        assert ratio_db == pytest.approx(6.0206, abs=1e-3)

    def test_co_located_points_merge_their_los_rays_only(self):
        # two targets at one position: each sub-link holds the geometric
        # LOS ray and a ray of its own, so of the 2 x 4 paths only the
        # LOS-LOS pair coincides
        def hop(side, seed):
            ray = make_sublink(side, [30e-9], seed=seed).clusters
            return SubLink(side, ClusterSet(power=0.5, delay=[10e-9, 30e-9],
                                            aod=[(0.4, 0.1), ray.aod[0]],
                                            aoa=[(1.2, -0.1), ray.aoa[0]]))
        sp = point()
        contributions = [(sp, hop(Side.TX_TO_TARGET, s), hop(Side.TARGET_TO_RX, s + 1), 0.0)
                         for s in (20, 30)]
        merged = multi_point_target(contributions, WL, OMNI)
        each = [multi_point_target([c], WL, OMNI) for c in contributions]
        assert len(merged) == 7 and all(len(c) == 4 for c in each)
        # the LOS-LOS path, 20 ns, is the earliest of every point's paths
        assert merged.delay[0] == each[0].delay[0] == each[1].delay[0] == 20e-9
        assert merged.amp[0] == each[0].amp[0] + each[1].amp[0]
        assert merged.delay.tolist().count(20e-9) == 1

    def test_path_count_sums_over_points(self):
        rng = np.random.default_rng(10)
        contributions, expected = [], 0
        for k in range(3):
            na, nb = rng.integers(2, 6, 2)
            contributions.append((
                point(),
                make_sublink(Side.TX_TO_TARGET, rng.uniform(0, 5e-8, na), seed=20 + k),
                make_sublink(Side.TARGET_TO_RX, rng.uniform(0, 5e-8, nb), seed=40 + k),
                0.0,
            ))
            expected += na * nb
        cir = multi_point_target(contributions, WL, OMNI)
        assert len(cir) == expected

    def test_no_points_give_the_empty_cir(self):
        cir = multi_point_target([], WL, OMNI)
        assert len(cir) == 0
        for name, dt in zip(COLUMNS, _DTYPES):
            assert getattr(cir, name).dtype == dt, name


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
