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
from itertools import islice
from pathlib import Path

import numpy as np

from .analysis import (
    ReconstructionScene,
    classify_bounce,
    delay_grid,
    subtract_background,
    turntable_scan,
    write_padp_csv,
    write_paths_json,
)
from .background import (
    GeometricScatterer,
    PcfModel,
    apply_pcf,
    background_bistatic,
    background_monostatic,
    default_pcf_model,
    sample_pcf,
)
from .config import ScenarioConfig, TargetSpec, parse_config, parse_scene
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
from .linkbudget import FreeSpacePathLoss, conv_path_power, delta_p
from .sounder import generate_pn, process_capture, save_capture, transmit_through
from .target import Side, SubLink, multi_point_target

OUTPUT_ROOT_ENV = "ISACSIM_OUTPUT_ROOT"


# ---------------------------------------------------------------------------
# Channel assembly
# ---------------------------------------------------------------------------

def _child_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def _los_sublink(side: Side, endpoint: np.ndarray, sp_pos, velocity, wl: float,
                 spec: TargetSpec, seed: int) -> SubLink:
    """Sub-link with a geometric line-of-sight ray plus statistical clusters.

    The LOS ray carries the exact geometric delay, the target-side angle,
    and the Doppler from the target's velocity projected on the hop.
    """
    sp_pos = np.asarray(sp_pos, dtype=float)
    d = float(np.linalg.norm(sp_pos - endpoint))
    if d <= 0.0:
        raise ValueError("target coincides with an endpoint")
    to_endpoint = angle_from_vector(endpoint - sp_pos)
    to_target = angle_from_vector(sp_pos - endpoint)
    dop = doppler_shift(velocity, np.zeros(3), to_endpoint, wl)
    if side is Side.TX_TO_TARGET:
        aod, aoa = to_target, to_endpoint  # departs the Tx, arrives at the target
    else:
        aod, aoa = to_endpoint, to_target  # departs the target, arrives at the Rx
    los = ClusterSet(power=1.0, delay=d / C_LIGHT, aod=(aod.azimuth, aod.elevation),
                     aoa=(aoa.azimuth, aoa.elevation), doppler=dop, bounce_order=0)
    if spec.profile.n_clusters == 0:
        return SubLink(side, los)
    sampled = sample_clusters(replace(spec.profile, seed=seed))
    return SubLink(side, with_los_ray(sampled, los, 10.0 ** (spec.k_factor_db / 10.0)))


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

    def __post_init__(self):
        if not all(math.isfinite(x) for x in self.pl_tar_db):
            raise ValueError("per-point target path losses must be finite")
        if not math.isfinite(self.pl_back_db):
            raise ValueError("background path loss must be finite")
        if not (0.0 < self.o_back <= 1.5):
            raise ValueError(f"power control factor {self.o_back} outside (0, 1.5]")
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")


def simulate_channels(config: ScenarioConfig) -> SimulationResult:
    """Assemble the target and background CIRs for one scenario."""
    wl = wavelength_m(config.carrier_freq_hz)
    root = np.random.SeedSequence(config.seed)
    bg_seq, pcf_seq, target_seq = root.spawn(3)
    fs_model = FreeSpacePathLoss(config.carrier_freq_hz)

    # target channel: one concatenated pair per scattering point
    tx_pos, rx_pos = config.tx.position_m, config.rx.position_m
    if config.targets:
        tx_ant = _aim(config.tx.antenna, tx_pos, config.targets[0].point.position)
        points, links, pls = [], [], []
        for spec, seq in zip(config.targets, target_seq.spawn(len(config.targets))):
            seed_a, seed_b = (_child_seed(s) for s in seq.spawn(2))
            sp = spec.point
            sub_a = _los_sublink(Side.TX_TO_TARGET, tx_pos, sp.position,
                                 sp.velocity, wl, spec, seed_a)
            sub_b = _los_sublink(Side.TARGET_TO_RX, rx_pos, sp.position,
                                 sp.velocity, wl, spec, seed_b)
            d1 = float(np.linalg.norm(sp.position - tx_pos))
            d2 = float(np.linalg.norm(sp.position - rx_pos))
            points.append(sp)
            links.append((sub_a, sub_b))
            pls.append(fs_model.eval_db(d1) + fs_model.eval_db(d2))
        target_cir = multi_point_target(points, links, wl, pl_tar_db=pls,
                                        tx_antenna=tx_ant,
                                        carrier_freq=config.carrier_freq_hz)
        pl_tar = tuple(pls)
    else:
        target_cir = Cir.from_columns([], [], carrier_freq=config.carrier_freq_hz)
        pl_tar = ()

    # background channel
    if config.background.mode == "statistical":
        profile = replace(config.background.profile, seed=_child_seed(bg_seq))
        aim_at = (config.targets[0].point.position if config.targets else rx_pos)
        bg_cir = background_bistatic(profile, _aim(config.tx.antenna, tx_pos, aim_at),
                                     AntennaModel(kind="omni"),
                                     carrier_freq=config.carrier_freq_hz)
        d_txrx = float(np.linalg.norm(rx_pos - tx_pos))
        pl_back = fs_model.eval_db(d_txrx) if d_txrx > 0 else 0.0
        bg_cir = bg_cir.scaled(10.0 ** (-pl_back / 20.0))
    else:
        bg_cir = background_monostatic(config.background.scatterers, tx_pos, wl,
                                       carrier_freq=config.carrier_freq_hz)
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

# the keys of a path record in target.json and background.json, in order
RECORD_KEYS = ("delay_s", "delay_ns", "amp_re", "amp_im", "power_db", "doppler_hz",
               "aod_az_deg", "aod_el_deg", "aoa_az_deg", "aoa_el_deg",
               "bounce_order", "origin")


# one path record, each field a JSON text
_RECORD = "{" + ",".join(f'"{key}":%s' for key in RECORD_KEYS) + "}"
_ORIGIN_TEXTS = np.array([json.dumps(o.value) for o in ORIGINS], dtype=object)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))  # runs in C


def _json_texts(col: np.ndarray, value=None) -> np.ndarray:
    """The JSON text of ``value(x)`` (default ``x``) for each element of a
    numeric column, computing and formatting each distinct element once.
    Elements are told apart by their bits, so -0.0 and 0.0 stay distinct."""
    col = np.ascontiguousarray(col)
    distinct, index = np.unique(col.view(np.int64), return_inverse=True)
    values = distinct.view(col.dtype).tolist()
    if value is not None:
        values = [value(x) for x in values]
    texts = _dumps(values)[1:-1].split(",") if values else []
    return np.array(texts, dtype=object)[index]


def _power_db(pw: float) -> float | None:
    return None if pw == 0 else 10.0 * math.log10(pw)


def write_cir_json(path, cir: Cir, extra: dict | None = None) -> None:
    """Write the CIR as compact JSON, one record per path: delay_s is the
    exact delay (delay_ns is for display only) and power_db is null at
    zero power. ``extra`` adds keys after ``carrier_freq_hz`` and
    ``paths``, which it must not replace."""
    extra = extra or {}
    if {"carrier_freq_hz", "paths"} & extra.keys():
        raise ValueError("extra must not replace carrier_freq_hz or paths")
    columns = (
        _json_texts(cir.delay),
        _json_texts(cir.delay * 1e9),
        _json_texts(cir.amp.real),
        _json_texts(cir.amp.imag),
        _json_texts(cir.powers(), _power_db),
        _json_texts(cir.doppler),
        _json_texts(np.degrees(cir.aod_az)),
        _json_texts(np.degrees(cir.aod_el)),
        _json_texts(np.degrees(cir.aoa_az)),
        _json_texts(np.degrees(cir.aoa_el)),
        _json_texts(cir.bounce_order),
        _ORIGIN_TEXTS[cir.origin_code],
    )
    records = zip(*(c.tolist() for c in columns))
    head = _dumps({"carrier_freq_hz": cir.carrier_freq})[:-1]
    tail = "," + _dumps(extra)[1:] if extra else "}"
    with open(path, "w") as f:
        f.write(f'{head},"paths":[')
        # a few thousand records at a time: holding the texts of all the
        # records of a large CIR at once raises the peak memory
        sep = ""
        while chunk := list(islice(records, 4096)):
            f.write(sep + ",".join([_RECORD % row for row in chunk]))
            sep = ","
        f.write(f"]{tail}")


def read_cir_json(path) -> Cir:
    """The CIR in a JSON path list that write_cir_json wrote. The angles
    come back through degrees, so they may differ from the simulated ones
    in the last bit; the pipelines read the path tables instead."""
    with open(path) as f:
        doc = json.load(f)
    recs = doc["paths"]
    codes = {o.value: i for i, o in enumerate(ORIGINS)}
    delay = [r["delay_s"] if "delay_s" in r else r["delay_ns"] * 1e-9 for r in recs]
    amp = np.array([r["amp_re"] for r in recs], dtype=complex)
    amp.imag = [r["amp_im"] for r in recs]  # set, not added, so that signed zeros survive
    return Cir.from_columns(
        delay, amp, [r["doppler_hz"] for r in recs],
        aod_az=np.radians([r["aod_az_deg"] for r in recs]),
        aod_el=np.radians([r["aod_el_deg"] for r in recs]),
        aoa_az=np.radians([r["aoa_az_deg"] for r in recs]),
        aoa_el=np.radians([r["aoa_el_deg"] for r in recs]),
        bounce_order=[r["bounce_order"] for r in recs],
        origin=np.array([codes[r["origin"]] for r in recs], dtype=np.int8),
        carrier_freq=doc["carrier_freq_hz"])


def write_path_table(path, cir: Cir) -> None:
    """Write the CIR's columns bit for bit as one .npy array of PATH_RECORD
    records, one per path, in the CIR's row order."""
    table = np.empty(len(cir), dtype=PATH_RECORD)
    for name in COLUMNS:
        table[name] = getattr(cir, name)
    with open(path, "wb") as f:
        np.save(f, table, allow_pickle=False)


def read_path_table(path, carrier_freq: float) -> Cir:
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
                                origin=table["origin_code"], carrier_freq=carrier_freq)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class RunReport:
    seed: int
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
    combined = Cir.concat([target_cir, bg_cir], carrier_freq=target_cir.carrier_freq)
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
    budget = {"pl_tar_db": list(sim.pl_tar_db), "pl_back_db": sim.pl_back_db,
              "o_back": sim.o_back, "wavelength_m": sim.wavelength}
    write_cir_json(out / "target.json", sim.target_cir, {"link_budget": budget})
    write_cir_json(out / "background.json", sim.background_cir, {"link_budget": budget})
    write_path_table(out / "target.npy", sim.target_cir)
    write_path_table(out / "background.npy", sim.background_cir)
    write_padp_csv(out / "padp.csv", grid)
    timings["write"] = time.perf_counter() - t0

    manifest = {name: _sha256(out / name) for name in OUTPUT_FILES}
    report = RunReport(seed=config.seed, manifest=manifest, timings_s=timings,
                       out_dir=str(out))
    with open(out / "report.json", "w") as f:
        json.dump({"seed": report.seed, "manifest": report.manifest,
                   "timings_s": report.timings_s, "config": config.raw,
                   "config_dir": str(config.base_dir.resolve())}, f, indent=1)
    return report


# ---------------------------------------------------------------------------
# Analyze
# ---------------------------------------------------------------------------

def load_scene(path) -> ReconstructionScene:
    with open(path) as f:
        scene = parse_scene(json.load(f))
    return ReconstructionScene(
        tx=scene["tx_m"], rx=scene["rx_m"], target=scene["target_m"],
        reflectors=tuple(GeometricScatterer(position=r["position_m"], label=r["label"] or f"R{i}")
                         for i, r in enumerate(scene["reflectors"])))


def run_analyze(run_dir, scene_path=None, peak_threshold_db: float = 30.0,
                margin_db: float = 6.0) -> list[dict]:
    """Re-scan the stored path tables, separate target from background
    peaks, optionally classify bounce orders, and write paths.json."""
    run_dir = Path(run_dir)
    with open(run_dir / "report.json") as f:
        report = json.load(f)
    if "config_dir" not in report:
        raise ValueError(f"{run_dir / 'report.json'} has no config_dir; simulate again")
    config = parse_config(report["config"], report["config_dir"])
    scene = load_scene(scene_path) if scene_path is not None else None

    target_cir = read_path_table(run_dir / "target.npy", config.carrier_freq_hz)
    bg_cir = read_path_table(run_dir / "background.npy", config.carrier_freq_hz)
    combined, bin_w, bins = _scan_input(target_cir, bg_cir, config.bandwidth_hz)
    angles, step = config.scan_angles_deg(), config.scan_step_deg
    with_target = turntable_scan(combined, config.rx.antenna, angles, bins)
    without_target = turntable_scan(bg_cir, config.rx.antenna, angles, bins)

    peaks = subtract_background(with_target, without_target,
                                match_tol=(step / 2.0, bin_w),
                                margin_db=margin_db,
                                peak_threshold_db=peak_threshold_db)
    bounce = None
    if scene is not None:
        bounce = [classify_bounce(pk, scene, delay_tol=bin_w, angle_tol_deg=step / 2.0)
                  for pk in peaks]
    write_paths_json(run_dir / "paths.json", peaks, bounce)
    with open(run_dir / "paths.json") as f:
        return json.load(f)["paths"]


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


def run_validate(golden_dir=None) -> ValidationReport:
    """Check the link-budget arithmetic and statistical defaults against
    the golden measurement tables."""
    golden = Path(golden_dir) if golden_dir is not None else packaged_golden_dir()
    rows: list[ValidationRow] = []
    wl = wavelength_m(6.9e9)

    t2 = golden / "concatenated_power_checks.csv"
    if not t2.exists():
        raise FileNotFoundError(f"missing golden file {t2}")
    with open(t2, newline="") as f:
        concat_rows = list(csv.DictReader(f))
    abs_dps = []
    for rec in concat_rows:
        p1, p2 = float(rec["p_n1_db"]), float(rec["p_n2_db"])
        sigma = float(rec["sigma_dbsm"])
        expected = float(rec["p_conv_db"])
        tol = float(rec["tol_db"])
        ambiguous = "sigma_sign_ambiguous" in rec["note"]
        got = conv_path_power(p1, p2, -sigma if ambiguous else sigma, wl)
        resid = got - expected
        note = " (sigma sign flipped per annotation)" if ambiguous else ""
        rows.append(ValidationRow(
            f"concat-power {rec['path_id']}",
            abs(resid) <= tol,
            f"residual {resid:+.4f} dB, tol {tol} dB{note}"))
        dp = delta_p(expected, float(rec["p_meas_db"]))
        dp_resid = dp - float(rec["delta_p_db"])
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

    t3 = golden / "bounce_power_proportions.csv"
    if not t3.exists():
        raise FileNotFoundError(f"missing golden file {t3}")
    from .analysis import power_proportion
    with open(t3, newline="") as f:
        for rec in csv.DictReader(f):
            pcts = [float(rec["pp0_pct"]), float(rec["pp1_pct"]), float(rec["pp2plus_pct"])]
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

    t4 = golden / "pcf_measurements.csv"
    if not t4.exists():
        raise FileNotFoundError(f"missing golden file {t4}")
    with open(t4, newline="") as f:
        pcf_rows = list(csv.DictReader(f))
    for rec in pcf_rows:
        val = float(rec["o_back"])
        got = sample_pcf(PcfModel(rec["condition"], mean=val, std=0.0), seed=1)
        rows.append(ValidationRow(
            f"PCF position {rec['position']} fixed value",
            got == val, f"sampled {got}"))
    for cond, expected_mean in (("los_los", 0.817), ("los_nlos", 0.915)):
        vals = [float(r["o_back"]) for r in pcf_rows if r["condition"] == cond]
        mean = sum(vals) / len(vals)
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
    combined = Cir.concat([sim.target_cir, sim.background_cir],
                          carrier_freq=config.carrier_freq_hz)
    if len(combined) == 0:
        raise ValueError("scenario produced no paths to sound")

    pn = generate_pn(config.sounder_m, chip_rate=config.bandwidth_hz)
    seed = _child_seed(np.random.SeedSequence(config.seed).spawn(4)[3])
    threshold_db = 15.0
    capture = transmit_through(combined, pn, config.sounder_snr_db, seed)
    result = process_capture(capture, pn, threshold_db=threshold_db)
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
