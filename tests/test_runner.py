import hashlib
import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from isacsim import Cir, GenerationProfile, free_space_loss_db, radar_pathloss, runner, sounder
from isacsim.core import C_LIGHT, COLUMNS, PATH_RECORD, packaged_golden_dir
from isacsim.cli import build_parser, main as cli_main
from isacsim.config import ConfigError, load_config, load_scene, parse_config
from isacsim.runner import (
    read_cir_json,
    read_path_table,
    run_analyze,
    run_simulate,
    run_sounder_roundtrip,
    run_validate,
    simulate_channels,
    write_cir_json,
    write_path_table,
)
from isacsim.analysis import TARGET_MARGIN_DB, extract_paths, turntable_scan
from isacsim.sounder import transmit_through

CONFIG_DIR = Path(__file__).parents[1] / "demos" / "configs"
SHIPPED_CONFIGS = sorted(p for p in CONFIG_DIR.glob("*.json") if "scene" not in p.name)


def _bits(col: np.ndarray) -> np.ndarray:
    """A column's integer view: equal views mean equal bits, signed zeros included."""
    return col.view(np.int64) if col.dtype.kind in "fc" else col


def scen1_like(tmp_path, **overrides) -> Path:
    """A 28 GHz / 0.6 GHz bi-static corridor scenario with a metal-plate target."""
    doc = {
        "name": "scen1_like",
        "carrier_freq_hz": 28e9,
        "bandwidth_hz": 0.6e9,
        "sensing_mode": "bi_static",
        "tx": {"position_m": [0, 0, 1.5], "antenna": {"kind": "omni"}},
        "rx": {"position_m": [7.45, 0, 1.5],
               "antenna": {"kind": "horn", "hpbw_deg": 10.31, "peak_gain_db": 25.0}},
        "targets": [{
            "position_m": [4.45, 1.0, 1.5],
            "rcs": {"variant": "constant", "sigma_dbsm": 40.0},
            "sublink": {"n_clusters": 2, "rays_per_cluster": 3, "delay_scale_ns": 10.0,
                        "angle_spread_deg": 5.0, "k_factor_db": 6.0},
        }],
        "background": {"mode": "statistical",
                       "profile": {"n_clusters": 5, "rays_per_cluster": 4,
                                   "delay_scale_ns": 30.0}},
        "pcf": {"condition": "los_los"},
        "scan": {"start_deg": 0.0, "stop_deg": 360.0, "step_deg": 5.0},
        "seed": 42,
        "outputs": str(tmp_path / "out"),
    }
    doc.update(overrides)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return p


def per_record_json(cir: Cir) -> str:
    """The path list of the per-record writer that write_cir_json replaced."""
    columns = (
        cir.delay.tolist(), cir.amp.real.tolist(), cir.amp.imag.tolist(), cir.doppler.tolist(),
        np.degrees(cir.aod_az).tolist(), np.degrees(cir.aod_el).tolist(),
        np.degrees(cir.aoa_az).tolist(), np.degrees(cir.aoa_el).tolist(),
        cir.bounce_order.tolist())
    return json.dumps({"paths": [dict(zip(runner.RECORD_KEYS, row)) for row in zip(*columns)]},
                      separators=(",", ":"))


class TestLoadConfig:
    def test_table1_style_config_valid(self, tmp_path):
        cfg = load_config(scen1_like(tmp_path))
        assert cfg.carrier_freq_hz == 28e9
        assert cfg.bandwidth_hz == 0.6e9
        assert len(cfg.scan_angles_deg()) == 72

    @pytest.mark.parametrize("start, stop, step, n", [
        (1.0, 1.3, 0.1, 3), (10.0, 11.3, 0.1, 13), (0.0, 360.0, 5.0, 72), (0.0, 0.3, 0.1, 3)])
    def test_scan_never_reaches_stop_angle(self, tmp_path, start, stop, step, n):
        cfg = load_config(scen1_like(tmp_path, scan={"start_deg": start, "stop_deg": stop,
                                                     "step_deg": step}))
        angles = cfg.scan_angles_deg()
        assert len(angles) == n
        np.testing.assert_array_equal(angles, np.arange(start, stop, step)[:n])

    def test_step_must_divide_range(self, tmp_path):
        path = scen1_like(tmp_path, scan={"start_deg": 0.0, "stop_deg": 360.0,
                                          "step_deg": 7.0})
        with pytest.raises(ConfigError, match="does not divide"):
            load_config(path)

    def test_monostatic_position_mismatch(self, tmp_path):
        path = scen1_like(tmp_path, sensing_mode="mono_static")
        with pytest.raises(ConfigError, match="tx.position_m == rx.position_m"):
            load_config(path)

    def test_all_violations_collected(self, tmp_path):
        path = scen1_like(tmp_path, bandwidth_hz=0.0, seed="not-an-int",
                          scan={"start_deg": 0.0, "stop_deg": 360.0, "step_deg": 7.0})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert len(err.value.violations) == 3

    def test_pcf_value_range(self, tmp_path):
        path = scen1_like(tmp_path, pcf={"value": 2.0})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.violations == ["pcf.value must be in (0, 1.5], got 2.0"]

    def test_background_mode_tied_to_sensing_mode(self, tmp_path):
        path = scen1_like(tmp_path, background={
            "mode": "geometric",
            "scatterers": [{"position_m": [3.0, 0.0, 1.5]}]})
        with pytest.raises(ConfigError, match="bi_static sensing requires"):
            load_config(path)

    def test_sublink_and_background_profiles_share_one_parser(self, tmp_path):
        cfg = load_config(scen1_like(tmp_path, targets=[{"position_m": [4.45, 1.0, 1.5]}]))
        # only the cluster count, ray count and delay scale defaults differ
        assert cfg.targets[0].profile == GenerationProfile(
            n_clusters=4, rays_per_cluster=5, delay_scale_s=20.0 * 1e-9)
        assert cfg.targets[0].k_factor_db == 6.0
        assert cfg.background.profile == GenerationProfile(
            n_clusters=5, rays_per_cluster=4, delay_scale_s=30.0 * 1e-9)

    def test_bad_sublink_profile_collected(self, tmp_path):
        path = scen1_like(tmp_path, bandwidth_hz=0.0, targets=[{
            "position_m": [4.45, 1.0, 1.5], "sublink": {"rays_per_cluster": 0}}])
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.violations == [
            "bandwidth_hz must be > 0, got 0.0",
            "targets[0].sublink.rays_per_cluster must be >= 1, got 0"]

    def test_demo_configs_all_valid(self):
        for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
            if "scene" in cfg_path.name:
                continue
            load_config(cfg_path)


class TestSimulateChannels:
    def test_target_cardinality_pre_merge(self, tmp_path):
        # sub-links carry 1 LOS + 2x3 cluster rays = 7 rays each;
        # the concatenated target channel pairs all of them
        cfg = load_config(scen1_like(tmp_path))
        sim = simulate_channels(cfg)
        assert len(sim.target_cir) == 7 * 7

    def test_no_targets_leaves_background_only(self, tmp_path):
        cfg = load_config(scen1_like(tmp_path, targets=[]))
        sim = simulate_channels(cfg)
        assert len(sim.target_cir) == 0
        assert len(sim.background_cir) > 0
        assert sim.pl_tar_db == ()

    def test_pcf_scales_background_power(self, tmp_path):
        base = simulate_channels(load_config(scen1_like(tmp_path, pcf={"value": 1.0})))
        scaled = simulate_channels(load_config(scen1_like(tmp_path, pcf={"value": 0.5})))
        ratio = scaled.background_cir.total_power() / base.background_cir.total_power()
        assert ratio == pytest.approx(0.5, rel=1e-12)

    def test_pcf_scales_monostatic_background_power(self):
        doc = json.loads((CONFIG_DIR / "monostatic_hall.json").read_text())
        powers = []
        for value in (1.0, 0.5):
            doc["pcf"] = {"value": value}
            cfg = parse_config(doc, CONFIG_DIR)
            powers.append(simulate_channels(cfg).background_cir.total_power())
        assert powers[1] / powers[0] == pytest.approx(0.5, rel=1e-12)

    def test_target_doppler_from_velocity(self, tmp_path):
        velocity = np.array([3.0, -2.0, 0.5])
        target = np.array([4.45, 1.0, 1.5])
        path = scen1_like(tmp_path, targets=[{
            "position_m": target.tolist(),
            "velocity_mps": velocity.tolist(),
            "rcs": {"variant": "constant", "sigma_dbsm": 10.0},
            "sublink": {"n_clusters": 0},
        }])
        sim = simulate_channels(load_config(path))
        assert len(sim.target_cir) == 1
        # the LOS x LOS path: each hop shifts by -v.u/lambda, u the unit
        # vector from that hop's endpoint (Tx, then Rx) toward the target
        u1 = target - [0, 0, 1.5]
        u2 = target - [7.45, 0, 1.5]
        expected = -(velocity @ u1 / np.linalg.norm(u1)
                     + velocity @ u2 / np.linalg.norm(u2)) / (C_LIGHT / 28e9)
        assert sim.target_cir.doppler[0] == pytest.approx(expected, rel=1e-12)


    @pytest.mark.parametrize("name", ["bistatic_indoor_human", "bistatic_ris_factory"])
    def test_los_los_power_follows_the_radar_equation(self, name):
        # the Tx horn is aimed at the target, and each hop's LOS ray takes
        # k/(1+k) of that hop's power
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        sim = simulate_channels(cfg)
        spec, wl = cfg.targets[0], sim.wavelength
        d1, d2 = (float(np.linalg.norm(spec.position_m - end))
                  for end in (cfg.tx.position_m, cfg.rx.position_m))
        los = np.flatnonzero(sim.target_cir.bounce_order == 0)
        assert len(los) == 1
        assert sim.target_cir.delay[los[0]] == pytest.approx((d1 + d2) / C_LIGHT,
                                                             rel=1e-12, abs=0.0)
        k = 10.0 ** (spec.k_factor_db / 10.0)
        want = (-radar_pathloss(free_space_loss_db(d1, wl), free_space_loss_db(d2, wl), wl,
                                spec.rcs.sigma_dbsm)
                + cfg.tx.antenna.peak_gain_db + 2 * 10.0 * math.log10(k / (1.0 + k)))
        got = 10.0 * math.log10(sim.target_cir.powers()[los[0]])
        assert got == pytest.approx(want, rel=0.0, abs=1e-9)


class TestRunSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = load_config(scen1_like(tmp_path))
        r1 = run_simulate(cfg, out_dir=tmp_path / "a")
        r2 = run_simulate(cfg, out_dir=tmp_path / "b")
        assert r1.manifest == r2.manifest
        for name in ("target.json", "background.json", "target.npy", "background.npy",
                     "padp.csv", "report.json"):
            assert (tmp_path / "a" / name).exists()
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert list(report) == ["manifest", "timings_s", "link_budget", "config"]
        assert set(report["timings_s"]) == {"simulate", "scan", "write"}
        sim = simulate_channels(cfg)
        assert report["link_budget"] == {"pl_tar_db": list(sim.pl_tar_db),
                                         "pl_back_db": sim.pl_back_db, "o_back": sim.o_back,
                                         "wavelength_m": sim.wavelength}
        assert set(report["manifest"]) == {"target.json", "background.json", "target.npy",
                                           "background.npy", "padp.csv"}
        assert report["config"] == cfg.raw

    def test_pcf_value_written_exactly(self, tmp_path):
        for value in (0.37, 1.5, 2.5e-308):
            cfg = load_config(scen1_like(tmp_path, pcf={"value": value}))
            run_simulate(cfg, out_dir=tmp_path / "run")
            doc = json.loads((tmp_path / "run" / "report.json").read_text())
            assert doc["link_budget"]["o_back"] == value

    def test_path_lists_hold_only_the_path_columns(self, tmp_path):
        run_simulate(load_config(CONFIG_DIR / "bistatic_ris_factory.json"), out_dir=tmp_path)
        for stem in ("target", "background"):
            doc = json.loads((tmp_path / f"{stem}.json").read_text())
            assert list(doc) == ["paths"] and doc["paths"]
            assert all(list(rec) == list(runner.RECORD_KEYS) for rec in doc["paths"])
            got = read_cir_json(tmp_path / f"{stem}.json")
            table = read_path_table(tmp_path / f"{stem}.npy")
            through_degrees = {name: np.radians(np.degrees(getattr(table, name)))
                               for name in ("aod_az", "aod_el", "aoa_az", "aoa_el")}
            want = Cir.from_columns(table.delay, table.amp, table.doppler, **through_degrees,
                                    bounce_order=table.bounce_order)
            for name in COLUMNS:  # bit for bit, so signed zeros count
                ref = want if name in through_degrees else table
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), (stem, name)

    def test_seed_changes_output(self, tmp_path):
        r1 = run_simulate(load_config(scen1_like(tmp_path)), out_dir=tmp_path / "a")
        r2 = run_simulate(load_config(scen1_like(tmp_path, seed=43)),
                          out_dir=tmp_path / "b")
        assert r1.manifest != r2.manifest

    def test_empty_target_run(self, tmp_path):
        cfg = load_config(scen1_like(tmp_path, targets=[]))
        run_simulate(cfg, out_dir=tmp_path / "k0")
        doc = json.loads((tmp_path / "k0" / "target.json").read_text())
        assert doc["paths"] == []
        bg = json.loads((tmp_path / "k0" / "background.json").read_text())
        assert len(bg["paths"]) > 0

    def test_cir_json_round_trip(self, tmp_path):
        cfg = load_config(scen1_like(tmp_path))
        sim = simulate_channels(cfg)
        write_cir_json(tmp_path / "t.json", sim.target_cir)
        back = read_cir_json(tmp_path / "t.json")
        assert len(back) == len(sim.target_cir)
        for name in ("amp", "delay"):
            np.testing.assert_array_equal(getattr(back, name), getattr(sim.target_cir, name))


    def test_cir_json_is_compact_records(self, tmp_path):
        cir = Cir.from_columns([2e-9, 1e-9], [0j, 0.5 - 0.5j], doppler=[0.0, 3.0],
                               aod_az=[0.0, 1.0], aod_el=[0.0, -0.1],
                               aoa_az=[0.0, 2.0], aoa_el=[0.0, 0.2], bounce_order=[0, 2])
        write_cir_json(tmp_path / "t.json", cir)
        text = (tmp_path / "t.json").read_text()
        assert "\n" not in text and ": " not in text and ", " not in text
        doc = json.loads(text)
        assert list(doc) == ["paths"]
        assert [list(r) for r in doc["paths"]] == [list(runner.RECORD_KEYS)] * 2
        first, zero = doc["paths"]
        assert first == {
            "delay_s": 1e-9, "amp_re": 0.5, "amp_im": -0.5, "doppler_hz": 3.0,
            "aod_az_deg": math.degrees(1.0), "aod_el_deg": math.degrees(-0.1),
            "aoa_az_deg": math.degrees(2.0), "aoa_el_deg": math.degrees(0.2),
            "bounce_order": 2}
        assert (zero["amp_re"], zero["amp_im"]) == (0.0, 0.0)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(
        st.sampled_from([0.0, 1e-9, 1e-9, 2.5e-9, 1e-300, 7.3e-8]),
        st.one_of(st.sampled_from([0.5, -0.0, 0.0, 5e-324, -2.2e-310, 1e-160, -1.25]),
                  st.floats(-10.0, 10.0)),
        st.one_of(st.sampled_from([0.5, -0.0, 0.0, 5e-324, 3e-170]), st.floats(-1.0, 1.0)),
        st.sampled_from([0.0, -0.0, 12.5, -3.1e4]),
        st.sampled_from([0.0, -1e-17, 2 * math.pi - 1e-15, math.nextafter(2 * math.pi, 0), 1.0]),
        st.sampled_from([-0.0, 0.25, -math.pi / 2, math.pi / 2]),
        st.integers(0, 3)), max_size=30))
    def test_cir_json_matches_per_record_encoding(self, tmp_path, rows):
        delay, re, im, dop, az, el, order = (
            np.array(c) for c in (zip(*rows) if rows else [[]] * 7))
        amp = np.zeros(len(rows), dtype=complex)
        amp.real, amp.imag = re, im  # set, not added, so that signed zeros survive
        cir = Cir.from_columns(delay, amp, dop, aod_az=az, aod_el=el,
                               aoa_az=np.flip(az), aoa_el=np.flip(el), bounce_order=order)
        write_cir_json(tmp_path / "t.json", cir)
        assert (tmp_path / "t.json").read_text() == per_record_json(cir)

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_cir_json_blocks_match_per_record_encoding(self, tmp_path, n):
        # values from small pools, so that signed zeros and equal values fall on
        # both sides of each block boundary; every third row has zero power
        rng = np.random.default_rng(n)

        def column(pool, spread):
            return np.where(rng.random(n) < 0.5, rng.choice(pool, n), spread * rng.random(n))

        amp = np.zeros(n, dtype=complex)
        amp.real = column([0.5, -0.0, 0.0, 5e-324, -1.25], -1.0)
        amp.imag = column([0.5, -0.0, 0.0, 3e-170], 1.0)
        amp.real[::3], amp.imag[::3] = -0.0, 0.0
        cir = Cir.from_columns(
            rng.choice([0.0, 1e-9, 2.5e-9, 7.3e-8], n), amp, column([0.0, -0.0, 12.5], 50.0),
            aod_az=column([0.0, -1e-17, math.nextafter(2 * math.pi, 0)], 6.0),
            aod_el=column([-0.0, 0.25, -math.pi / 2], 1.5),
            aoa_az=column([0.0, 1.0], 6.0), aoa_el=column([-0.0, math.pi / 2], -1.5),
            bounce_order=rng.integers(0, 4, n))
        if n > 1024:
            assert cir.delay[1023] == cir.delay[1024]
        write_cir_json(tmp_path / "t.json", cir)
        assert (tmp_path / "t.json").read_text() == per_record_json(cir)

    def test_cir_json_memory_is_flat_in_paths(self, tmp_path):
        n = 60_000  # every value distinct: no text is shared between rows
        rng = np.random.default_rng(1)
        cir = Cir.from_columns(
            rng.uniform(0, 1e-6, n), rng.normal(size=n) + 1j * rng.normal(size=n),
            rng.normal(size=n), aod_az=rng.uniform(0, 6, n), aod_el=rng.uniform(-1, 1, n),
            aoa_az=rng.uniform(0, 6, n), aoa_el=rng.uniform(-1, 1, n),
            bounce_order=rng.integers(0, 4, n))
        tracemalloc.start()
        try:
            write_cir_json(tmp_path / "t.json", cir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak

    def test_sha256_reads_in_blocks(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(0).bytes(5 * 2 ** 19 + 3))
        assert runner._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_read_cir_json_matches_per_record_reader(self, tmp_path):
        def record_row(rec):  # the per-record reader that read_cir_json replaced
            return (rec["delay_s"],
                    complex(rec["amp_re"], rec["amp_im"]), rec["doppler_hz"],
                    math.radians(rec["aod_az_deg"]), math.radians(rec["aod_el_deg"]),
                    math.radians(rec["aoa_az_deg"]), math.radians(rec["aoa_el_deg"]),
                    rec["bounce_order"])

        sim = simulate_channels(load_config(CONFIG_DIR / "bistatic_ris_factory.json"))
        write_cir_json(tmp_path / "t.json", Cir.concat([sim.target_cir, sim.background_cir]))
        doc = json.loads((tmp_path / "t.json").read_text())
        # edge cases: signed zeros, a full turn, zero power, equal delays
        edge = {"delay_s": 7e-9, "amp_re": -0.0, "amp_im": 0.0,
                "doppler_hz": -0.0, "aod_az_deg": 360.0, "aod_el_deg": -0.0,
                "aoa_az_deg": -0.0, "aoa_el_deg": 90.0, "bounce_order": 0}
        doc["paths"] += [edge, dict(edge, aod_az_deg=-1e-300, aoa_az_deg=359.9)]
        (tmp_path / "t.json").write_text(json.dumps(doc))
        got = read_cir_json(tmp_path / "t.json")
        want = Cir.from_columns(*zip(*map(record_row, doc["paths"])))
        assert len(got) == len(want) == len(sim.target_cir) + len(sim.background_cir) + 2
        for name in COLUMNS:  # bit for bit, so signed zeros count
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(
        st.one_of(st.sampled_from([0.0, 1e-9, 1e-9, 5e-324, 7.3e-8]), st.floats(0.0, 1e-6)),
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.2e-310, 1e-160]), st.floats(-10.0, 10.0)),
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 3e-170]), st.floats(-1.0, 1.0)),
        st.sampled_from([0.0, -0.0, 12.5, -3.1e4, 5e-324]),
        st.one_of(st.sampled_from([0.0, -0.0, -1e-17, math.nextafter(2 * math.pi, 0),
                                   2 * math.pi - 1e-15]), st.floats(0.0, 7.0)),
        st.one_of(st.sampled_from([-0.0, -math.pi / 2, math.pi / 2]),
                  st.floats(-math.pi / 2, math.pi / 2)),
        st.integers(0, 40)), max_size=30))
    def test_path_table_round_trip_bit_for_bit(self, tmp_path, rows):
        delay, re, im, dop, az, el, order = (
            np.array(c) for c in (zip(*rows) if rows else [[]] * 7))
        amp = np.zeros(len(rows), dtype=complex)
        amp.real, amp.imag = re, im  # set, not added, so that signed zeros survive
        cir = Cir.from_columns(delay, amp, dop, aod_az=az, aod_el=el,
                               aoa_az=np.flip(az), aoa_el=np.flip(el), bounce_order=order)
        write_path_table(tmp_path / "t.npy", cir)
        back = read_path_table(tmp_path / "t.npy")
        assert len(back) == len(cir)
        for name in COLUMNS:
            got, want = getattr(back, name), getattr(cir, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=name)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(0, 40), version=st.sampled_from([(1, 0), (2, 0), (3, 0)]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=0, version=(1, 0), seed=0)
    def test_path_table_with_another_valid_header_reads_back(self, tmp_path, n, version, seed):
        # the header np.save writes is read directly; any other valid one
        # goes through numpy's reader and gives the same bits
        rng = np.random.default_rng(seed)
        amp = rng.normal(size=n) + 1j * rng.normal(size=n)
        amp.imag[::3] = -0.0
        cir = Cir.from_columns(np.sort(rng.uniform(0.0, 1e-6, n)), amp, rng.normal(size=n),
                               aod_az=rng.uniform(0.0, 6.0, n), aoa_el=rng.uniform(-1.5, 1.5, n),
                               bounce_order=rng.integers(0, 5, n))
        write_path_table(tmp_path / "t.npy", cir)
        table = np.load(tmp_path / "t.npy", allow_pickle=False)
        with open(tmp_path / "t.npy", "wb") as f:
            np.lib.format.write_array(f, table, version=version, allow_pickle=False)
        back = read_path_table(tmp_path / "t.npy")
        assert len(back) == n
        for name in COLUMNS:
            got, want = getattr(back, name), getattr(cir, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=name)

    def test_path_table_is_plain_npy(self, tmp_path):
        cir = simulate_channels(load_config(scen1_like(tmp_path))).target_cir
        write_path_table(tmp_path / "t.npy", cir)
        table = np.load(tmp_path / "t.npy", allow_pickle=False)
        assert table.dtype == PATH_RECORD and table.shape == (len(cir),)
        assert table.dtype.names == COLUMNS
        assert all(table.dtype[name].str[0] in "<|" for name in COLUMNS)
        assert table["aoa_az"].tobytes() == cir.aoa_az.tobytes()  # radians, as in memory


def perturbed_golden(golden: Path, name: str, *edits: tuple[str, str]) -> Path:
    """A copy of the packaged golden tables in ``golden`` with each (old,
    new) text edit made once in the table ``name``."""
    golden.mkdir()
    for f in packaged_golden_dir().glob("*.csv"):
        shutil.copy(f, golden / f.name)
    text = (golden / name).read_text()
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    (golden / name).write_text(text)
    return golden


class TestRunValidate:
    def test_packaged_golden_passes(self):
        report = run_validate()
        assert report.ok
        assert len(report.rows) == 26

    def test_perturbed_golden_fails_that_row_only(self, tmp_path):
        report = run_validate(perturbed_golden(
            tmp_path / "concat", "concatenated_power_checks.csv", ("-106.39", "-109.39")))
        assert not report.ok
        failed = [r.name for r in report.rows if not r.passed]
        # the perturbed concatenated power breaks its row and the
        # dependent delta-P rows for 1-A
        assert any("1-A" in n for n in failed)
        assert all("1-A" in n or "delta-P" in n for n in failed)
        # one measured los_los PCF moved: the golden mean leaves 0.817
        report = run_validate(perturbed_golden(
            tmp_path / "pcf", "pcf_measurements.csv", ("1,los_los,0.89", "1,los_los,0.90")))
        assert len(report.rows) == 26
        assert [r.name for r in report.rows if not r.passed] == ["PCF los_los mean = 0.817"]

    @pytest.mark.parametrize("old, new, detail", [
        # a row's RCS moved by its tolerance plus 0.1 dB
        ("1-A,-74.64,-78.46,8.48,", "1-A,-74.64,-78.46,8.59,", "residual +0.1127 dB"),
        # 2-D's RCS is flipped per its note, so its residual moves from -0.3673 dB
        ("2-D,-70.21,-95.59,6.70,", "2-D,-70.21,-95.59,7.20,", "residual -0.8673 dB"),
        # sub-link powers that no hop length gives
        ("1-B,-74.64,-83.36,", "1-B,-74.64,nan,",
         "no channel: p_n2_db nan dB gives no finite hop length"),
        ("1-B,-74.64,-83.36,", "1-B,-74.64,-1e5,",
         "no channel: p_n2_db -100000.0 dB gives no finite hop length"),
    ], ids=["rcs", "flipped-rcs", "nan-power", "overflowing-power"])
    def test_moved_row_fails_its_concat_power_check_only(self, tmp_path, old, new, detail):
        report = run_validate(perturbed_golden(
            tmp_path / "golden", "concatenated_power_checks.csv", (old, new)))
        assert len(report.rows) == 26
        failed = [r for r in report.rows if not r.passed]
        assert [r.name for r in failed] == [f"concat-power {old[:3]}"]
        assert failed[0].detail.startswith(detail)

    def test_missing_golden_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_validate(tmp_path)

    def test_condition_without_golden_rows_fails_its_mean(self, tmp_path):
        golden = perturbed_golden(tmp_path / "golden", "pcf_measurements.csv")
        table = golden / "pcf_measurements.csv"
        table.write_text("".join(line for line in table.read_text().splitlines(True)
                                 if "los_nlos" not in line))
        report = run_validate(golden)
        assert [r.name for r in report.rows if not r.passed] == ["PCF los_nlos mean = 0.915"]

    @pytest.mark.parametrize("name, edit, message", [
        ("concatenated_power_checks.csv", ("tol_db,note", "tol_db,remark"),
         "lacks column(s) note"),
        ("concatenated_power_checks.csv", None, "has no rows"),
        ("pcf_measurements.csv", None, "has no rows"),
        ("bounce_power_proportions.csv", ("pp1_pct", "pp_1_pct"), "lacks column(s) pp1_pct"),
        ("concatenated_power_checks.csv", ("1.15,0.01,\n", "1.15\n"),
         "line 2 ends before column tol_db"),
        ("concatenated_power_checks.csv", ("1-A,-74.64", "1-A,x"),
         "line 2, column p_n1_db: 'x' is not a valid float"),
        ("pcf_measurements.csv", ("\n3,los_los", "\nthree,los_los"),
         "line 4, column position: 'three' is not a valid int"),
        ("pcf_measurements.csv", ("3,los_los,0.67", "3,los_los,0.67,0.99"),
         "line 4 has 4 cells, more than the header's 3"),
    ], ids=["renamed-column", "empty-concat", "empty-pcf", "renamed-proportion",
            "short-row", "non-numeric-cell", "non-integer-position", "long-row"])
    def test_malformed_golden_table_exits_2(self, tmp_path, capsys, name, edit, message):
        golden = perturbed_golden(tmp_path / "golden", name, *([edit] if edit else []))
        if edit is None:  # keep the header only
            text = (golden / name).read_text()
            (golden / name).write_text(text[:text.index("\n") + 1])
        assert cli_main(["validate", str(golden)]) == 2
        assert capsys.readouterr().err == f"error: golden table {golden / name} {message}\n"


class TestRunAnalyze:
    def test_analyze_finds_direct_path(self, tmp_path):
        # strong constant-RCS target, LOS-only sub-links: analyze tags
        # the concatenated direct path and the scene classifies it
        path = scen1_like(tmp_path, targets=[{
            "position_m": [4.45, 1.0, 1.5],
            "rcs": {"variant": "constant", "sigma_dbsm": 40.0},
            "sublink": {"n_clusters": 0},
        }])
        cfg = load_config(path)
        run_simulate(cfg, out_dir=tmp_path / "run")
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "tx_m": [0, 0, 1.5], "rx_m": [7.45, 0, 1.5],
            "target_m": [4.45, 1.0, 1.5], "reflectors": [],
        }))
        paths = run_analyze(tmp_path / "run", scene_path=scene,
                            peak_threshold_db=80.0)
        assert len(paths) >= 1
        direct = [p for p in paths if p["bounce_order"] == 0]
        assert len(direct) == 1
        assert (tmp_path / "run" / "paths.json").exists()

    @pytest.mark.parametrize("cfg_path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_rescan_equals_simulate_scan(self, tmp_path, monkeypatch, cfg_path):
        grids = []

        def scan(*args, **kwargs):
            grids.append(turntable_scan(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(runner, "turntable_scan", scan)
        run_simulate(load_config(cfg_path), out_dir=tmp_path / "run")
        run_analyze(tmp_path / "run")
        simulated, with_target, _ = grids
        assert np.array_equal(with_target.power, simulated.power)

    @pytest.mark.parametrize("threshold_db", [30.0, 120.0])
    @pytest.mark.parametrize("cfg_path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_written_peaks_follow_the_cell_rule(self, tmp_path, cfg_path, threshold_db):
        # the peaks of the with-target scan that rise more than the margin
        # above the no-target scan's cell at the same (angle, delay), or
        # whose no-target cell is empty, and no others
        cfg = load_config(cfg_path)
        run_simulate(cfg, out_dir=tmp_path / "run")
        written = run_analyze(tmp_path / "run", peak_threshold_db=threshold_db)
        target = read_path_table(tmp_path / "run" / "target.npy")
        background = read_path_table(tmp_path / "run" / "background.npy")
        combined, _, angles, bins = runner._scan_input(target, background, cfg)
        with_target = turntable_scan(combined, cfg.rx.antenna, angles, bins)
        without_target = turntable_scan(background, cfg.rx.antenna, angles, bins)
        candidates = extract_paths(with_target.power, angles, bins, threshold_db)
        margin = 10.0 ** (TARGET_MARGIN_DB / 10.0)
        want = []
        for pk in candidates:
            i = int(np.flatnonzero(angles == pk.angle_deg)[0])
            j = int(np.searchsorted(bins, pk.delay_s)) - 1
            assert with_target.power[i, j] == pk.power
            ref = without_target.power[i, j]
            if ref == 0.0 or pk.power > ref * margin:
                want.append((pk.angle_deg, pk.delay_s * 1e9, pk.power_db))
        assert [(p["theta_deg"], p["tau_ns"], p["power_db"]) for p in written] == want
        assert {p["origin"] for p in written} <= {"target"}

    def test_shipped_scene_loads(self):
        # the file still carries beamwidth_deg, which nothing reads
        scene = load_scene(CONFIG_DIR / "indoor_human_scene.json")
        assert [r.label for r in scene.reflectors] == ["south_wall", "west_wall"]
        np.testing.assert_array_equal(scene.target, [5.0, 0.71, 1.4])


class TestSounderRoundtripPipeline:
    def test_reports_full_recovery(self, tmp_path):
        path = scen1_like(tmp_path, targets=[{
            "position_m": [4.45, 1.0, 1.5],
            "rcs": {"variant": "constant", "sigma_dbsm": 40.0},
            "sublink": {"n_clusters": 0},
        }], background={"mode": "geometric", "scatterers": [
            {"position_m": [12.0, -6.0, 1.5], "label": "wall"}]},
            sensing_mode="mono_static",
            rx={"position_m": [0, 0, 1.5], "antenna": {"kind": "omni"}},
            tx={"position_m": [0, 0, 1.5], "antenna": {"kind": "omni"}})
        cfg = load_config(path)
        doc = run_sounder_roundtrip(cfg, out_dir=tmp_path / "snd")
        assert doc["n_recovered"] == doc["n_resolvable"]
        assert all(m["matched_truth_ns"] is not None for m in doc["recovered"])
        assert (tmp_path / "snd" / "capture.bin").exists()
        assert (tmp_path / "snd" / "capture.bin.json").exists()

    def test_one_transmission_saved_as_captured(self, tmp_path, monkeypatch):
        captures = []

        def transmit(*args, **kwargs):
            captures.append(transmit_through(*args, **kwargs))
            return captures[-1]

        monkeypatch.setattr(runner, "transmit_through", transmit)
        monkeypatch.setattr(sounder, "transmit_through", transmit)
        run_sounder_roundtrip(load_config(scen1_like(tmp_path)), out_dir=tmp_path / "snd")
        assert len(captures) == 1
        raw = np.fromfile(tmp_path / "snd" / "capture.bin", "<f4")
        np.testing.assert_array_equal(raw[0::2] + 1j * raw[1::2],
                                      captures[0].samples.astype(np.complex64))

    def test_noise_seed_is_the_fourth_stage_seed(self, tmp_path, monkeypatch):
        seeds = []

        def transmit(cir, pn, snr_db, seed):
            seeds.append(seed)
            return transmit_through(cir, pn, snr_db, seed)

        monkeypatch.setattr(runner, "transmit_through", transmit)
        cfg = load_config(scen1_like(tmp_path))
        run_sounder_roundtrip(cfg, out_dir=tmp_path / "snd")
        stages = [runner._child_seed(s) for s in runner._stage_seeds(cfg.seed)]
        assert seeds == [stages[3]]
        assert len(set(stages)) == 4  # background, PCF, targets and noise all differ


class TestCli:
    def test_simulate_and_analyze(self, tmp_path, capsys):
        cfg_path = scen1_like(tmp_path)
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        assert cli_main(["analyze", str(tmp_path / "run"), "--threshold-db", "90"]) == 0
        out = capsys.readouterr().out
        assert "sha256" in out
        assert "paths.json" in out

    @pytest.mark.parametrize("threshold", ["nan", "-5", "0"])
    def test_threshold_not_above_zero_exits_2(self, tmp_path, capsys, threshold):
        cfg_path = scen1_like(tmp_path)
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        argv = ["analyze", str(tmp_path / "run"), f"--threshold-db={threshold}"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == ("error: peak threshold must be > 0 dB "
                                           "below the global peak\n")
        assert not (tmp_path / "run" / "paths.json").exists()

    def test_free_space_monostatic_scene_analyzes(self, tmp_path):
        # a target and no scatterers: the no-target scan is empty
        doc = json.loads((CONFIG_DIR / "monostatic_hall.json").read_text())
        doc["background"]["scatterers"] = []
        doc["targets"] = [{"position_m": [5.0, 2.0, 1.5]}]
        cfg_path = tmp_path / "free_space.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        assert cli_main(["analyze", str(tmp_path / "run")]) == 0
        paths = json.loads((tmp_path / "run" / "paths.json").read_text())["paths"]
        assert paths and {p["origin"] for p in paths} == {"target"}

    def test_omni_receiver_gives_one_peak_per_delay(self, tmp_path):
        # an omni scan repeats one row at every angle: each delay peak is a
        # plateau across all scan angles, and gives one peak
        doc = json.loads((CONFIG_DIR / "bistatic_ris_factory.json").read_text())
        doc["rx"]["antenna"] = {"kind": "omni"}
        cfg_path = tmp_path / "omni_rx.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        assert cli_main(["analyze", str(tmp_path / "run")]) == 0
        paths = json.loads((tmp_path / "run" / "paths.json").read_text())["paths"]
        delays = [p["tau_ns"] for p in paths]
        assert paths and len(delays) == len(set(delays))

    @pytest.mark.parametrize("command", ["simulate", "sounder-roundtrip"])
    def test_empty_monostatic_scene_rejected(self, tmp_path, capsys, command):
        # no target and no scatterer: nothing to analyze or sound
        doc = json.loads((CONFIG_DIR / "monostatic_hall.json").read_text())
        doc["background"]["scatterers"] = []
        cfg_path = tmp_path / "empty.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main([command, str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            "invalid scenario config:\n  - targets and background.scatterers are both "
            "empty: the scene has no paths\n")
        assert not (tmp_path / "run").exists()

    def test_validate_exit_codes(self, tmp_path, capsys):
        assert cli_main(["validate"]) == 0
        golden = perturbed_golden(tmp_path / "concat", "concatenated_power_checks.csv",
                                  ("-106.39", "-109.39"))
        assert cli_main(["validate", str(golden)]) == 1
        golden = perturbed_golden(tmp_path / "pcf", "pcf_measurements.csv",
                                  ("1,los_los,0.89", "1,los_los,0.90"))
        assert cli_main(["validate", str(golden)]) == 1
        assert ("[FAIL] PCF los_los mean = 0.817: golden mean 0.818000, "
                "default model mean 0.817000") in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = scen1_like(tmp_path, bandwidth_hz=-1.0)
        assert cli_main(["simulate", str(cfg_path)]) == 2
        assert "bandwidth_hz" in capsys.readouterr().err

    def test_pcf_domain_rejected(self, tmp_path, capsys):
        cfg_path = scen1_like(tmp_path, pcf={"value": 0.5, "domain": "db_pathloss"})
        assert cli_main(["simulate", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n  - ") == 1
        assert "pcf.domain" in err

    @pytest.mark.parametrize("hpbw", ["x", None, -3.0])
    def test_bad_horn_beamwidth_rejected(self, tmp_path, capsys, hpbw):
        doc = json.loads((CONFIG_DIR / "bistatic_ris_factory.json").read_text())
        doc["rx"]["antenna"]["hpbw_deg"] = hpbw
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n  - ") == 1
        expected = ("a width whose directivity 4 pi / (hpbw in rad)^2 is within ±300 dB"
                    if hpbw == -3.0 else "a number")
        assert f"\n  - rx.antenna.hpbw_deg must be {expected}, got {hpbw!r}\n" in err

    def test_horn_too_narrow_to_see_a_path_names_the_run(self, tmp_path, capsys):
        # just above the narrowest width the rule allows, the Rx lobe is zero
        # toward every stored path
        doc = json.loads((CONFIG_DIR / "bistatic_indoor_human.json").read_text())
        doc["rx"]["antenna"]["hpbw_deg"] = 2.04e-13
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        run = tmp_path / "run"
        assert cli_main(["simulate", str(cfg_path), "--out", str(run)]) == 0
        capsys.readouterr()
        assert cli_main(["analyze", str(run)]) == 2
        assert capsys.readouterr().err == (f"error: {run}: PADP is empty: "
                                           "the scan finds no power in any stored path\n")

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_scan_too_large_for_the_bandwidth_names_it(self, tmp_path, capsys, command):
        doc = json.loads((CONFIG_DIR / "bistatic_indoor_human.json").read_text())
        cfg_path, run = tmp_path / "scenario.json", tmp_path / "run"
        cfg_path.write_text(json.dumps(doc))
        if command == "analyze":  # a report whose stored bandwidth is out of range
            assert cli_main(["simulate", str(cfg_path), "--out", str(run)]) == 0
            report = json.loads((run / "report.json").read_text())
            report["config"]["bandwidth_hz"] = 1e300
            (run / "report.json").write_text(json.dumps(report))
            argv = ["analyze", str(run)]
        else:
            doc["bandwidth_hz"] = 1e300
            cfg_path.write_text(json.dumps(doc))
            argv = ["simulate", str(cfg_path), "--out", str(run)]
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bandwidth_hz 1e+300 gives ") and err.count("\n") == 1
        assert err.endswith(" delay bins at each of 72 scan angles: "
                            "a scan may have at most 1000000 cells\n")
        assert command == "analyze" or not run.exists()

    def test_analyze_rejects_bad_stored_config(self, tmp_path, capsys):
        cfg_path = scen1_like(tmp_path)
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        report_path = tmp_path / "run" / "report.json"
        report = json.loads(report_path.read_text())
        report["config"]["scan"]["step_deg"] = 0
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert cli_main(["analyze", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario config" in err
        assert "scan.step_deg must be > 0" in err

    @pytest.mark.parametrize("change, message", [
        (lambda r: r.pop("config"), "has no config"),
        ("{", "is not valid JSON (Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1))"),
    ], ids=["no-config", "not-json"])
    def test_analyze_rejects_damaged_report(self, tmp_path, capsys, change, message):
        """``change`` edits the report's document, or is the damaged file's text."""
        cfg_path = scen1_like(tmp_path)
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        report_path = tmp_path / "run" / "report.json"
        if isinstance(change, str):
            report_path.write_text(change)
        else:
            report = json.loads(report_path.read_text())
            change(report)
            report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert cli_main(["analyze", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {report_path} {message}; simulate again\n"

    @pytest.mark.parametrize("command, data", [
        ("simulate", b"{\n"), ("analyze-scene", b"{\n"), ("simulate", b"\xff\xfe{")],
        ids=["simulate", "analyze-scene", "simulate-not-text"])
    def test_input_file_not_json_exits_2_naming_it(self, tmp_path, capsys, command, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        if command == "simulate":
            argv = ["simulate", str(bad)]
        else:
            assert cli_main(["simulate", str(scen1_like(tmp_path)),
                             "--out", str(tmp_path / "run")]) == 0
            capsys.readouterr()
            argv = ["analyze", str(tmp_path / "run"), "--scene", str(bad)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not valid JSON (") and err.count("\n") == 1

    def test_analyze_needs_neither_the_config_nor_its_rcs_table(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        rows = ["az_in_deg,el_in_deg,az_out_deg,el_out_deg,rcs_dbsm"]
        rows += [f"{a},0,{b},0,{10.0 + a / 100.0 - b / 200.0}"
                 for a in (0, 180) for b in (0, 180)]
        (cfg_dir / "rcs.csv").write_text("\n".join(rows) + "\n")
        cfg_path = scen1_like(cfg_dir, targets=[{
            "position_m": [4.45, 1.0, 1.5],
            "rcs": {"variant": "table", "csv": "rcs.csv"},
            "sublink": {"n_clusters": 0}}])
        monkeypatch.chdir(tmp_path)
        assert cli_main(["simulate", "cfg/scenario.json", "--out", "run"]) == 0
        assert cli_main(["analyze", "run", "--threshold-db", "90"]) == 0
        before = (tmp_path / "run" / "paths.json").read_bytes()
        (cfg_dir / "rcs.csv").unlink()
        cfg_path.unlink()
        assert cli_main(["analyze", "run", "--threshold-db", "90"]) == 0
        assert (tmp_path / "run" / "paths.json").read_bytes() == before

    def test_report_names_no_absolute_directory(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        scen1_like(cfg_dir, outputs="run")
        monkeypatch.chdir(tmp_path)
        assert cli_main(["simulate", "cfg/scenario.json", "--out", "run"]) == 0
        text = (tmp_path / "run" / "report.json").read_text()
        for directory in (tmp_path / "run", cfg_dir):
            assert str(directory) not in text and str(directory.resolve()) not in text

    def test_boolean_seed_rejected(self, tmp_path, capsys):
        cfg_path = scen1_like(tmp_path, seed=True)
        assert cli_main(["simulate", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n  - ") == 1
        assert "seed must be an integer" in err

    def test_sounder_roundtrip_command(self, tmp_path, capsys):
        cfg_path = scen1_like(tmp_path)
        assert cli_main(["sounder-roundtrip", str(cfg_path),
                         "--out", str(tmp_path / "snd")]) == 0
        assert "chip-resolvable" in capsys.readouterr().out

    @pytest.mark.parametrize("m, err", [
        (5, "error: bandwidth_hz 400000000.0 and sounder.register_length 5 give a PN period "
            "of 77.5 ns, not longer than the longest path delay, 174.4 ns: the range would "
            "be ambiguous\n"),
        (20, "invalid scenario config:\n"
             "  - sounder.register_length must be between 3 and 15, got 20\n"),
    ], ids=["5-outside one PN period", "20-no default taps"])
    def test_sounder_roundtrip_bad_register_length(self, tmp_path, capsys, m, err):
        doc = json.loads((CONFIG_DIR / "bistatic_ris_factory.json").read_text())
        doc["sounder"]["register_length"] = m
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["sounder-roundtrip", str(cfg_path),
                         "--out", str(tmp_path / "snd")]) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / "snd").exists()

    def test_sounder_roundtrip_period_too_short_names_both_keys(self, tmp_path, capsys):
        # at this chip rate the PN period rounds to 0.0 ns: the message must
        # name what sets it, not only the path that falls outside it
        doc = json.loads((CONFIG_DIR / "bistatic_indoor_human.json").read_text())
        doc["bandwidth_hz"] = 1e300
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["sounder-roundtrip", str(cfg_path),
                         "--out", str(tmp_path / "snd")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "bandwidth_hz 1e+300" in err and "sounder.register_length 11" in err
        assert not (tmp_path / "snd").exists()

    def test_repeated_calls_share_no_state(self, tmp_path, monkeypatch, capsys):
        # one process, many calls: the parser is built once, and no option
        # or failure of one call reaches the next. Each call must write what
        # the same call writes first in a process, with a fresh parser.
        doc = json.loads((CONFIG_DIR / "bistatic_indoor_human.json").read_text())
        doc["outputs"] = "default_out"
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        shutil.copy(CONFIG_DIR / "indoor_human_scene.json", tmp_path / "scene.json")
        monkeypatch.chdir(tmp_path)

        def written(argv, run_dir):
            assert cli_main(argv) == 0, capsys.readouterr().err
            files = {}
            for p in sorted(Path(run_dir).iterdir()):
                data = p.read_bytes()
                if p.name == "report.json":  # all of it but its timings
                    data = json.dumps(dict(json.loads(data), timings_s=None)).encode()
                files[p.name] = data
            return files

        calls = [
            (["simulate", "scenario.json", "--out", "run"], "run"),
            (["simulate", "scenario.json"], "default_out"),
            (["analyze", "run", "--threshold-db", "120", "--scene", "scene.json"], "run"),
            (["analyze", "run"], "run"),
            (["analyze", "run", "--scene", "scene.json"], "run"),
            (["analyze", "default_out", "--threshold-db", "120"], "default_out"),
            (["sounder-roundtrip", "scenario.json", "--out", "snd"], "snd"),
            (["sounder-roundtrip", "scenario.json"], "default_out"),
        ]
        bad_calls = [["analyze"], ["analyze", "run", "--threshold-db", "x"],
                     ["simulate", "scenario.json", "--bogus"], []]
        outputs = []
        for k, (argv, run_dir) in enumerate(calls):
            with pytest.raises(SystemExit) as exc:  # an argparse failure first
                cli_main(bad_calls[k % len(bad_calls)])
            assert exc.value.code == 2
            warm = written(argv, run_dir)
            build_parser.cache_clear()
            assert written(argv, run_dir) == warm, argv
            outputs.append(warm)
        assert build_parser() is build_parser()
        # the options were in force where given, and only there
        paths = [json.loads(out["paths.json"])["paths"] for out in outputs[2:6]]
        labelled = [any(p["route_labels"] for p in run) for run in paths]
        assert labelled == [True, False, True, False]
        assert [len(run) for run in paths[1:]] == [len(paths[1]), len(paths[1]), len(paths[0])]
        assert len(paths[1]) < len(paths[0])
        assert outputs[1]["target.npy"] == outputs[0]["target.npy"]


    @pytest.mark.parametrize("change, message", [
        (lambda d: d.update(pcf=0.5), "pcf must be an object, got 0.5"),
        (lambda d: d.update(scan=5), "scan must be an object, got 5"),
        (lambda d: d["tx"].update(antenna="horn"), "tx.antenna must be an object, got 'horn'"),
        (lambda d: d["targets"][0].update(sublink=3),
         "targets[0].sublink must be an object, got 3"),
        (lambda d: d["sounder"].update(snr_db=None), "sounder.snr_db must be a number, got None"),
    ], ids=["pcf", "scan", "tx.antenna", "sublink", "snr_db"])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, change, message):
        doc = json.loads((CONFIG_DIR / "bistatic_ris_factory.json").read_text())
        change(doc)
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario config")
        assert f"\n  - {message}\n" in err

    def test_unknown_profile_key_is_config_error(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "bistatic_ris_factory.json").read_text())
        doc["targets"][0]["sublink"]["n_cluster"] = 2
        doc["background"]["profile"]["k_factor_db"] = 3.0  # a sub-link key only
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario config")
        assert ("\n  - targets[0].sublink.n_cluster is not a known key; "
                "did you mean 'n_clusters'?\n") in err
        assert "\n  - background.profile.k_factor_db is not a known key" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key, hint", [
        (lambda d: d["sounder"], "snr", "sounder.snr is not a known key; did you mean 'snr_db'?"),
        (lambda d: d["scan"], "step", "scan.step is not a known key; did you mean 'step_deg'?"),
        (lambda d: d["targets"][0], "velocity",
         "targets[0].velocity is not a known key; did you mean 'velocity_mps'?"),
        (lambda d: d, "bandwidth", "bandwidth is not a known key; did you mean 'bandwidth_hz'?"),
        (lambda d: d["rx"]["antenna"], "hpbw", "rx.antenna.hpbw is not a known key"),
        (lambda d: d["targets"][0]["rcs"], "exponent", "targets[0].rcs.exponent is not a known key"),
        (lambda d: d["background"], "scatterers", "background.scatterers is not a known key"),
        (lambda d: d["pcf"], "sigma", "pcf.sigma is not a known key"),
        (lambda d: d["tx"], "pos", "tx.pos is not a known key"),
        # a Doppler comes from the target's velocity alone
        (lambda d: d["targets"][0]["sublink"], "doppler_max_hz",
         "targets[0].sublink.doppler_max_hz is not a known key"),
    ], ids=["sounder.snr", "scan.step", "targets.velocity", "bandwidth", "antenna", "rcs",
            "background", "pcf", "tx", "sublink.doppler_max_hz"])
    def test_unknown_key_anywhere_is_config_error(self, tmp_path, capsys, section, key, hint):
        doc = json.loads((CONFIG_DIR / "bistatic_ris_factory.json").read_text())
        section(doc)[key] = 1
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario config")
        assert err.count("\n  - ") == 1
        assert f"\n  - {hint}" in err
        assert not (tmp_path / "run").exists()

    def test_unknown_scatterer_key_is_config_error(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "monostatic_hall.json").read_text())
        doc["background"]["scatterers"][2]["reflection_gain"] = -3.0
        doc["tx"]["antenna"] = doc["rx"]["antenna"] = {"kind": "omni", "peak_gain_db": 3.0}
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "\n  - background.scatterers[2].reflection_gain is not a known key; " \
               "did you mean 'reflection_gain_db'?" in err
        assert "\n  - tx.antenna.peak_gain_db is not a known key" in err
        assert "\n  - rx.antenna.peak_gain_db is not a known key" in err


def _save(path, array):
    """np.save, object arrays included, as a foreign file may hold them."""
    with open(path, "wb") as f:
        np.save(f, array, allow_pickle=True)


def _with_first_value(column, value):
    def damage(path):
        table = np.load(path, allow_pickle=False)
        table[column][0] = value
        _save(path, table)
    return damage


def _previous_format(path):
    """Rewrite the table in the record layout of earlier runs: the same
    fields plus an int8 origin_code."""
    table = np.load(path, allow_pickle=False)
    old = np.zeros(len(table), dtype=PATH_RECORD.descr + [("origin_code", "i1")])
    for name in COLUMNS:
        old[name] = table[name]
    _save(path, old)


class TestAnalyzeReadsPathTables:
    """analyze reads target.npy and background.npy; a damaged, foreign or
    missing table ends with one line naming the file and exit code 2."""

    @pytest.fixture
    def run_dir(self, tmp_path, capsys):
        cfg_path = scen1_like(tmp_path)
        assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        return tmp_path / "run"

    def test_json_edits_do_not_reach_analyze(self, run_dir):
        before = run_analyze(run_dir, peak_threshold_db=90.0)
        (run_dir / "target.json").write_text("not json")
        (run_dir / "background.json").unlink()
        assert run_analyze(run_dir, peak_threshold_db=90.0) == before

    @pytest.mark.parametrize("damage, message", [
        (lambda p: p.write_bytes(b""), "is not a readable .npy array"),
        (lambda p: p.write_bytes(p.read_bytes()[:-5]), "is not a readable .npy array"),
        (lambda p: p.write_bytes(p.read_bytes()[:60]), "is not a readable .npy array"),
        (lambda p: p.write_text('{"paths": []}'), "is not a readable .npy array"),
        (lambda p: _save(p, np.array([{"delay": 0.0}], dtype=object)),
         "is not a readable .npy array"),
        (lambda p: p.write_bytes(p.read_bytes() + b"\0"), "has bytes past its array"),
        (lambda p: p.write_bytes(p.read_bytes() + bytes(PATH_RECORD.itemsize)),
         "has bytes past its array"),
        (lambda p: p.write_bytes(p.read_bytes()[:-PATH_RECORD.itemsize]),
         "is not a readable .npy array"),
        (lambda p: _save(p, np.zeros(4)), "holds records of dtype float64"),
        (lambda p: _save(p, np.load(p).astype(PATH_RECORD.newbyteorder(">"))),
         "not path records"),
        (lambda p: _save(p, np.stack([np.load(p)] * 2)), "holds a 2-D array"),
        (_with_first_value("amp", complex(math.nan, 0.0)), "amplitude must be finite"),
        (_with_first_value("doppler", math.nan), "Doppler must be finite"),
        (_with_first_value("doppler", math.inf), "Doppler must be finite"),
        (_with_first_value("delay", -1e-9), "delay must be finite and >= 0, got -1e-09"),
        (_previous_format, "not path records; simulate again"),
    ], ids=["empty", "truncated", "truncated-header", "not-npy", "object-array",
            "trailing-bytes", "trailing-record", "missing-record", "wrong-dtype", "big-endian", "2-D", "nan-amplitude",
            "nan-doppler", "inf-doppler", "negative-delay", "previous-format"])
    def test_bad_table_exits_2_naming_the_file(self, run_dir, capsys, damage, message):
        table = run_dir / "target.npy"
        damage(table)
        assert cli_main(["analyze", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}")
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert "pickle" not in err
        assert not (run_dir / "paths.json").exists()

    def test_run_without_tables_is_refused(self, run_dir, capsys):
        (run_dir / "target.npy").unlink()
        (run_dir / "background.npy").unlink()
        assert cli_main(["analyze", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'target.npy'} not found")
        assert err.strip().endswith("simulate again")
        assert len(err.strip().splitlines()) == 1


def test_table_rcs_simulate_leaves_scipy_unloaded(tmp_path):
    rows = ["az_in_deg,el_in_deg,az_out_deg,el_out_deg,rcs_dbsm"]
    rows += [f"{a},{e},{b},0,{a / 100.0 - b / 200.0 + e}"
             for a in (0, 180) for e in (-10, 10) for b in (0, 90, 180)]
    (tmp_path / "rcs.csv").write_text("\n".join(rows) + "\n")
    cfg_path = scen1_like(tmp_path, targets=[{
        "position_m": [4.45, 1.0, 1.5],
        "rcs": {"variant": "table", "csv": "rcs.csv"},
        "sublink": {"n_clusters": 2, "rays_per_cluster": 3}}])
    src = Path(__file__).parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from isacsim.cli import main; "
            "assert main(['simulate', sys.argv[2], '--out', sys.argv[3]]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(src), str(cfg_path),
                          str(tmp_path / "run")], check=True, capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "target.json").exists()


def test_import_leaves_scipy_unloaded():
    src = Path(__file__).parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import isacsim; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
