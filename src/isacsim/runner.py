"""End-to-end pipelines: simulate, analyze, validate, sounder round trip.

Every stage draws its randomness from child seeds spawned off the single
scenario seed, so a (config, seed) pair fully determines every output
byte; the run report records a SHA-256 manifest to make that checkable.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import (
    classify_bounce,
    delay_grid,
    power_proportion,
    subtract_background,
    turntable_scan,
    write_padp_csv,
    write_paths_json,
)
from .background import (
    PCF_MEASUREMENTS,
    apply_pcf,
    background_bistatic,
    background_monostatic,
    default_pcf_model,
    sample_pcf,
)
from .config import ScenarioConfig, TargetSpec, load_scene, parse_config, read_json
from .core import (
    C_LIGHT,
    COLUMNS,
    ORIGINS,
    PATH_RECORD,
    Cir,
    angle_from_vector,
    merge_paths,
    wavelength_m,
)
from .gbsm import AntennaModel, ClusterSet, doppler_shift, sample_clusters, with_los_ray
from .linkbudget import conv_path_power, delta_p, free_space_loss_db
from .sounder import generate_pn, process_capture, save_capture, transmit_through
from .target import Side, SubLink, multi_point_target

OUTPUT_ROOT_ENV = "ISACSIM_OUTPUT_ROOT"


# ---------------------------------------------------------------------------
# Channel assembly
# ---------------------------------------------------------------------------

def _child_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def _stage_seeds(seed: int) -> list[np.random.SeedSequence]:
    """The run's four child seed sequences, spawned off the scenario seed:
    background, PCF, targets and sounder noise."""
    return np.random.SeedSequence(seed).spawn(4)


def _los_sublink(side: Side, endpoint: np.ndarray, sp_pos, velocity, wl: float,
                 spec: TargetSpec, seed: int) -> tuple[SubLink, float]:
    """Sub-link with a geometric line-of-sight ray plus statistical
    clusters, and the hop's length in meters.

    The LOS ray carries the exact geometric delay, the target-side angle,
    and the Doppler from the target's velocity projected on the hop.
    """
    sp_pos = np.asarray(sp_pos, dtype=float)
    d = float(np.linalg.norm(sp_pos - endpoint))
    to_endpoint = angle_from_vector(endpoint - sp_pos)
    to_target = angle_from_vector(sp_pos - endpoint)
    dop = doppler_shift(velocity, to_endpoint, wl)
    if side is Side.TX_TO_TARGET:
        aod, aoa = to_target, to_endpoint  # departs the Tx, arrives at the target
    else:
        aod, aoa = to_endpoint, to_target  # departs the target, arrives at the Rx
    los = ClusterSet(power=1.0, delay=d / C_LIGHT, aod=aod, aoa=aoa, doppler=dop,
                     bounce_order=0)
    if spec.profile.n_clusters == 0:
        return SubLink(side, los), d
    sampled = sample_clusters(spec.profile, seed)
    return SubLink(side, with_los_ray(sampled, los, 10.0 ** (spec.k_factor_db / 10.0))), d


def _aim(antenna: AntennaModel, from_pos: np.ndarray, at_pos: np.ndarray) -> AntennaModel:
    if antenna.kind != "horn":
        return antenna
    boresight = angle_from_vector(np.asarray(at_pos, float) - np.asarray(from_pos, float))
    return replace(antenna, boresight=boresight)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    target_cir: Cir
    background_cir: Cir
    pl_tar_db: tuple[float, ...]
    pl_back_db: float
    o_back: float
    wavelength: float


def simulate_channels(config: ScenarioConfig) -> SimulationResult:
    """Assemble the target and background CIRs for one scenario."""
    wl = wavelength_m(config.carrier_freq_hz)
    bg_seq, pcf_seq, target_seq, _ = _stage_seeds(config.seed)

    # target channel: one concatenated pair per scattering point
    tx_pos, rx_pos = config.tx.position_m, config.rx.position_m
    if config.targets:
        tx_ant = _aim(config.tx.antenna, tx_pos, config.targets[0].point.position)
        contributions = []
        for spec, seq in zip(config.targets, target_seq.spawn(len(config.targets))):
            seed_a, seed_b = (_child_seed(s) for s in seq.spawn(2))
            sp = spec.point
            sub_a, d1 = _los_sublink(Side.TX_TO_TARGET, tx_pos, sp.position,
                                     sp.velocity, wl, spec, seed_a)
            sub_b, d2 = _los_sublink(Side.TARGET_TO_RX, rx_pos, sp.position,
                                     sp.velocity, wl, spec, seed_b)
            contributions.append((sp, sub_a, sub_b,
                                  free_space_loss_db(d1, wl) + free_space_loss_db(d2, wl)))
        target_cir = multi_point_target(contributions, wl, tx_antenna=tx_ant)
        pl_tar = tuple(pl for *_, pl in contributions)
    else:
        target_cir = Cir.from_columns([], [])
        pl_tar = ()

    # background channel
    if config.background.mode == "statistical":
        aim_at = (config.targets[0].point.position if config.targets else rx_pos)
        bg_cir = background_bistatic(config.background.profile, _child_seed(bg_seq),
                                     _aim(config.tx.antenna, tx_pos, aim_at))
        pl_back = free_space_loss_db(float(np.linalg.norm(rx_pos - tx_pos)), wl)
        bg_cir = bg_cir.scaled(10.0 ** (-pl_back / 20.0))
    else:
        bg_cir = background_monostatic(config.background.scatterers, tx_pos, wl)
        pl_back = 0.0  # two-way spreading already inside the path amplitudes

    # power control factor coupling: o_back scales linear received power,
    # so each amplitude scales by the root of the scaled unit power
    o_back = sample_pcf(config.pcf, _child_seed(pcf_seq))
    bg_cir = bg_cir.scaled(math.sqrt(apply_pcf(1.0, o_back)))

    return SimulationResult(target_cir=target_cir, background_cir=bg_cir,
                            pl_tar_db=pl_tar, pl_back_db=pl_back,
                            o_back=o_back, wavelength=wl)


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------

# the keys of a path record in target.json and background.json, in order:
# the CIR's columns, with the angles in degrees
RECORD_KEYS = ("delay_s", "amp_re", "amp_im", "doppler_hz", "aod_az_deg", "aod_el_deg",
               "aoa_az_deg", "aoa_el_deg", "bounce_order", "origin")


# one path record, each field a JSON text
_RECORD = "{" + ",".join(f'"{key}":%s' for key in RECORD_KEYS) + "}"
_ORIGIN_TEXTS = np.array([json.dumps(o.value) for o in ORIGINS], dtype=object)
_BLOCK_ROWS = 1024  # records formatted at a time: the writer's memory is flat in the path count


def _json_texts(col: np.ndarray) -> np.ndarray:
    """The JSON text of each element of a numeric column, formatting each
    distinct element once. Elements are told apart by their bits, so -0.0
    and 0.0 stay distinct."""
    col = np.ascontiguousarray(col)
    distinct, index = np.unique(col.view(np.int64), return_inverse=True)
    values = distinct.view(col.dtype).tolist()
    texts = json.dumps(values, separators=(",", ":"))[1:-1].split(",") if values else []
    return np.array(texts, dtype=object)[index]


def write_cir_json(path, cir: Cir) -> None:
    """Write the CIR as compact JSON, ``{"paths": [...]}``, one record of
    RECORD_KEYS per path."""
    with open(path, "w") as f:
        f.write('{"paths":[')
        for start in range(0, len(cir), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            amp = cir.amp[rows]
            columns = (
                _json_texts(cir.delay[rows]), _json_texts(amp.real), _json_texts(amp.imag),
                _json_texts(cir.doppler[rows]),
                *(_json_texts(np.degrees(col[rows]))
                  for col in (cir.aod_az, cir.aod_el, cir.aoa_az, cir.aoa_el)),
                _json_texts(cir.bounce_order[rows]), _ORIGIN_TEXTS[cir.origin_code[rows]],
            )
            records = zip(*(c.tolist() for c in columns))
            f.write(("," if start else "") + ",".join([_RECORD % row for row in records]))
        f.write("]}")


def read_cir_json(path) -> Cir:
    """The CIR in a JSON path list that write_cir_json wrote. The angles
    come back through degrees, so they may differ from the simulated ones
    in the last bit; the pipelines read the path tables instead."""
    with open(path) as f:
        doc = json.load(f)
    recs = doc["paths"]
    codes = {o.value: i for i, o in enumerate(ORIGINS)}
    amp = np.array([r["amp_re"] for r in recs], dtype=complex)
    amp.imag = [r["amp_im"] for r in recs]  # set, not added, so that signed zeros survive
    return Cir.from_columns(
        [r["delay_s"] for r in recs], amp, [r["doppler_hz"] for r in recs],
        aod_az=np.radians([r["aod_az_deg"] for r in recs]),
        aod_el=np.radians([r["aod_el_deg"] for r in recs]),
        aoa_az=np.radians([r["aoa_az_deg"] for r in recs]),
        aoa_el=np.radians([r["aoa_el_deg"] for r in recs]),
        bounce_order=[r["bounce_order"] for r in recs],
        origin=np.array([codes[r["origin"]] for r in recs], dtype=np.int8))


def write_path_table(path, cir: Cir) -> None:
    """Write the CIR's columns bit for bit as one .npy array of PATH_RECORD
    records, one per path, in the CIR's row order."""
    table = np.empty(len(cir), dtype=PATH_RECORD)
    for name in COLUMNS:
        table[name] = getattr(cir, name)
    with open(path, "wb") as f:
        np.save(f, table, allow_pickle=False)


def read_path_table(path) -> Cir:
    """The CIR in a path table that write_path_table wrote. The file must
    hold exactly one one-dimensional array of PATH_RECORD records, and
    Cir.from_columns checks every value; otherwise a ValueError names the
    file. The .npy format is read directly, so nothing is ever unpickled."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            table = np.lib.format.read_array(f, allow_pickle=False)
            trailing = f.read(1)
    except FileNotFoundError:
        raise ValueError(f"{path} not found: the run was written before path tables "
                         "or is incomplete; simulate again") from None
    except (OSError, ValueError):
        # numpy's own message can advise allowing pickles: keep it from the user
        raise ValueError(f"{path} is not a readable .npy array "
                         "(empty, truncated or another format); simulate again") from None
    if trailing:
        raise ValueError(f"{path} has bytes past its array; simulate again")
    if table.dtype != PATH_RECORD:
        raise ValueError(f"{path} holds records of dtype {table.dtype}, "
                         "not path records; simulate again")
    if table.ndim != 1:
        raise ValueError(f"{path} holds a {table.ndim}-D array, "
                         "not one record per path; simulate again")
    try:
        return Cir.from_columns(*(table[name] for name in COLUMNS[:-1]),
                                origin=table["origin_code"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 16):  # a 1 MiB buffer adds 1 MiB to the peak RSS
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class RunReport:
    manifest: dict[str, str]
    timings_s: dict[str, float]
    out_dir: str


def _resolve_out_dir(config: ScenarioConfig, out_dir) -> Path:
    if out_dir is not None:
        return Path(out_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root) / config.name
    return Path(config.outputs)


def _scan_input(target_cir: Cir, bg_cir: Cir, bandwidth_hz: float):
    """The combined sensing CIR, the delay-bin width (one over the
    bandwidth) and the delay bins a scan of it uses."""
    combined = Cir.concat([target_cir, bg_cir])
    bin_w = 1.0 / bandwidth_hz
    max_delay = combined.delay.max(initial=0.0) + 2 * bin_w
    return combined, bin_w, delay_grid(max_delay, bin_w)


# the files simulate writes and report.json's manifest hashes
OUTPUT_FILES = ("target.json", "background.json", "target.npy", "background.npy", "padp.csv")


def run_simulate(config: ScenarioConfig, out_dir=None) -> RunReport:
    """Simulate one scenario and write OUTPUT_FILES and report.json into
    the output directory: the path lists as JSON for people and other
    tools, and as the path tables that analyze reads."""
    out = _resolve_out_dir(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    sim = simulate_channels(config)
    timings["simulate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    combined, _, bins = _scan_input(sim.target_cir, sim.background_cir,
                                    config.bandwidth_hz)
    grid = turntable_scan(combined, config.rx.antenna, config.scan_angles_deg(), bins)
    timings["scan"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for name, cir in (("target.json", sim.target_cir), ("background.json", sim.background_cir)):
        write_cir_json(out / name, cir)
    write_path_table(out / "target.npy", sim.target_cir)
    write_path_table(out / "background.npy", sim.background_cir)
    write_padp_csv(out / "padp.csv", grid)
    timings["write"] = time.perf_counter() - t0

    manifest = {name: _sha256(out / name) for name in OUTPUT_FILES}
    report = RunReport(manifest=manifest, timings_s=timings, out_dir=str(out))
    budget = {"pl_tar_db": list(sim.pl_tar_db), "pl_back_db": sim.pl_back_db,
              "o_back": sim.o_back, "wavelength_m": sim.wavelength}
    with open(out / "report.json", "w") as f:
        json.dump({"manifest": report.manifest, "timings_s": report.timings_s,
                   "link_budget": budget, "config": config.raw,
                   "config_dir": str(config.base_dir.resolve())}, f, indent=1)
    return report


# ---------------------------------------------------------------------------
# Analyze
# ---------------------------------------------------------------------------

def run_analyze(run_dir, scene_path=None, peak_threshold_db: float = 30.0) -> list[dict]:
    """Re-scan the stored path tables, separate target from background
    peaks, optionally classify bounce orders, and write paths.json."""
    run_dir = Path(run_dir)
    report_path = run_dir / "report.json"
    report = read_json(report_path, "; simulate again")
    if not isinstance(report, dict) or "config" not in report:
        raise ValueError(f"{report_path} has no config; simulate again")
    if not isinstance(report.get("config_dir"), str):
        raise ValueError(f"{report_path} has no config_dir string; simulate again")
    config = parse_config(report["config"], report["config_dir"])
    scene = load_scene(scene_path) if scene_path is not None else None

    target_cir = read_path_table(run_dir / "target.npy")
    bg_cir = read_path_table(run_dir / "background.npy")
    combined, bin_w, bins = _scan_input(target_cir, bg_cir, config.bandwidth_hz)
    angles, step = config.scan_angles_deg(), config.scan_step_deg
    with_target = turntable_scan(combined, config.rx.antenna, angles, bins)
    without_target = turntable_scan(bg_cir, config.rx.antenna, angles, bins)

    peaks = subtract_background(with_target, without_target,
                                match_tol=(step / 2.0, bin_w),
                                peak_threshold_db=peak_threshold_db)
    bounce = None
    if scene is not None:
        bounce = [classify_bounce(pk, scene, delay_tol=bin_w, angle_tol_deg=step / 2.0)
                  for pk in peaks]
    return write_paths_json(run_dir / "paths.json", peaks, bounce)


# ---------------------------------------------------------------------------
# Validate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationRow:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rows)

    def print(self) -> None:
        for r in self.rows:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        n_fail = sum(not r.passed for r in self.rows)
        print(f"{len(self.rows) - n_fail}/{len(self.rows)} checks passed")


def packaged_golden_dir() -> Path:
    return Path(str(resources.files("isacsim") / "data"))


def _golden_rows(golden: Path, name: str, columns: dict[str, type]) -> list[dict]:
    """The rows of a golden table, which must have rows and each of
    ``columns``; every row fills each column, read with its type."""
    path = golden / name
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"golden table {path} lacks column(s) {', '.join(missing)}")
        for rec in reader:
            where = f"golden table {path} line {reader.line_num}"
            for col, kind in columns.items():
                if rec[col] is None:
                    raise ValueError(f"{where} ends before column {col}")
                try:
                    rec[col] = kind(rec[col])
                except ValueError:
                    raise ValueError(f"{where}, column {col}: {rec[col]!r} is not a valid "
                                     f"{kind.__name__}") from None
            rows.append(rec)
    if not rows:
        raise ValueError(f"golden table {path} has no rows")
    return rows


def run_validate(golden_dir=None) -> ValidationReport:
    """Check the link-budget arithmetic and statistical defaults against
    the golden measurement tables."""
    golden = Path(golden_dir) if golden_dir is not None else packaged_golden_dir()
    rows: list[ValidationRow] = []
    wl = wavelength_m(6.9e9)

    abs_dps = []
    for rec in _golden_rows(golden, "concatenated_power_checks.csv",
                            {"path_id": str, "p_n1_db": float, "p_n2_db": float,
                             "sigma_dbsm": float, "p_conv_db": float, "p_meas_db": float,
                             "delta_p_db": float, "tol_db": float, "note": str}):
        p1, p2 = rec["p_n1_db"], rec["p_n2_db"]
        sigma = rec["sigma_dbsm"]
        expected = rec["p_conv_db"]
        tol = rec["tol_db"]
        ambiguous = "sigma_sign_ambiguous" in rec["note"]
        got = conv_path_power(p1, p2, -sigma if ambiguous else sigma, wl)
        resid = got - expected
        note = " (sigma sign flipped per annotation)" if ambiguous else ""
        rows.append(ValidationRow(
            f"concat-power {rec['path_id']}",
            abs(resid) <= tol,
            f"residual {resid:+.4f} dB, tol {tol} dB{note}"))
        dp = delta_p(expected, rec["p_meas_db"])
        dp_resid = dp - rec["delta_p_db"]
        abs_dps.append(abs(dp))
        rows.append(ValidationRow(
            f"delta-P {rec['path_id']}",
            abs(dp_resid) <= 0.01,
            f"residual {dp_resid:+.4f} dB"))
    rows.append(ValidationRow("max |delta-P| <= 7 dB", max(abs_dps) <= 7.0,
                              f"max {max(abs_dps):.2f} dB"))
    rows.append(ValidationRow("min |delta-P| = 0.11 dB",
                              abs(min(abs_dps) - 0.11) <= 0.005,
                              f"min {min(abs_dps):.2f} dB"))

    for rec in _golden_rows(golden, "bounce_power_proportions.csv",
                            {"case": str, "pp0_pct": float, "pp1_pct": float,
                             "pp2plus_pct": float}):
        pcts = [rec["pp0_pct"], rec["pp1_pct"], rec["pp2plus_pct"]]
        total = sum(pcts)
        rows.append(ValidationRow(
            f"proportions {rec['case']} column sum",
            abs(total - 100.0) <= 0.1, f"sum {total:.3f}%"))
        planted = [(order, pct) for order, pct in enumerate(pcts) if pct > 0]
        pp = power_proportion(planted)
        recon = [x * 100.0 for x in pp.as_tuple()]
        err = max(abs(a - b) for a, b in zip(recon, pcts))
        rows.append(ValidationRow(
            f"proportions {rec['case']} round trip",
            err <= 1e-9, f"max error {err:.2e}%"))

    # each measured factor against the one the model's PCF table holds
    pcf_rows = _golden_rows(golden, "pcf_measurements.csv",
                            {"position": int, "condition": str, "o_back": float})
    model_values = {(pos, cond): val for pos, cond, val in PCF_MEASUREMENTS}
    for rec in pcf_rows:
        val = rec["o_back"]
        want = model_values.get((rec["position"], rec["condition"]))
        rows.append(ValidationRow(
            f"PCF position {rec['position']} {rec['condition']}",
            want == val, f"golden {val}, model table {want}"))
    for cond, expected_mean in (("los_los", 0.817), ("los_nlos", 0.915)):
        vals = [r["o_back"] for r in pcf_rows if r["condition"] == cond]
        mean = sum(vals) / len(vals) if vals else math.nan  # nan fails the check
        model = default_pcf_model(cond)
        ok = (abs(mean - expected_mean) <= 1e-12
              and abs(model.mean - expected_mean) <= 1e-12)
        rows.append(ValidationRow(
            f"PCF {cond} mean = {expected_mean}", ok,
            f"golden mean {mean:.6f}, default model mean {model.mean:.6f}"))

    return ValidationReport(tuple(rows))


# ---------------------------------------------------------------------------
# Sounder round trip
# ---------------------------------------------------------------------------

def run_sounder_roundtrip(config: ScenarioConfig, out_dir=None) -> dict:
    """Push the simulated sensing CIR through the sliding-correlation
    pipeline and report how well the paths survive."""
    out = _resolve_out_dir(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sim = simulate_channels(config)
    combined = Cir.concat([sim.target_cir, sim.background_cir])
    if len(combined) == 0:
        raise ValueError("scenario produced no paths to sound")

    pn = generate_pn(config.sounder_m, chip_rate=config.bandwidth_hz)
    threshold_db = 15.0
    capture = transmit_through(combined, pn, config.sounder_snr_db,
                               _child_seed(_stage_seeds(config.seed)[3]))
    result = process_capture(capture, threshold_db=threshold_db)
    save_capture(capture, out / "capture.bin")

    # ground truth at the sounder's own resolution: coherent chip-width
    # binning, keeping bins within the detection threshold of the peak
    chip = 1.0 / config.bandwidth_hz
    merged = merge_paths(combined, chip / 2, math.pi)
    powers = merged.powers()
    floor = powers.max() * 10.0 ** (-threshold_db / 10.0)
    resolvable = merged.delay[powers >= floor].tolist()

    matches = []
    for d_est, a_est in result.recovered:
        best = min(resolvable, key=lambda d: abs(d - d_est), default=None)
        matched = best is not None and abs(best - d_est) <= chip
        matches.append({
            "delay_est_ns": d_est * 1e9,
            "power_est_db": 20.0 * math.log10(abs(a_est)),
            "matched_truth_ns": best * 1e9 if matched else None,
            "delay_err_chips": (d_est - best) / chip if matched else None,
        })
    doc = {
        "pn": {"m": pn.m, "taps": list(pn.taps), "chip_rate_hz": pn.chip_rate},
        "snr_db": config.sounder_snr_db,
        "n_true_paths": len(combined),
        "n_resolvable": len(resolvable),
        "n_recovered": len(result.recovered),
        "recovered": matches,
    }
    with open(out / "roundtrip.json", "w") as f:
        json.dump(doc, f, indent=1)
    return doc
