"""End-to-end pipelines: simulate, analyze, validate, sounder round trip.

Every stage draws its randomness from child seeds spawned off the single
scenario seed, so a (config, seed) pair fully determines every output
byte; the run report records a SHA-256 manifest to make that checkable.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from .analysis import (
    MAX_SCAN_CELLS,
    PEAK_THRESHOLD_DB,
    PadpPeak,
    classify_bounce,
    delay_grid,
    subtract_background,
    turntable_scan,
    write_padp_csv,
    write_paths_json,
)
from .background import (
    PCF_COLUMNS,
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
    PATH_RECORD,
    Cir,
    Record,
    ScatteringPoint,
    ValueRecord,
    angle_from_vector,
    golden_rows,
    merge_paths,
    packaged_golden_dir,
    wavelength_m,
)
from .gbsm import AntennaModel, ClusterSet, sample_clusters, with_los_ray
from .linkbudget import delta_p, free_space_loss_db
from .sounder import (
    DETECTION_THRESHOLD_DB,
    generate_pn,
    process_capture,
    save_capture,
    transmit_through,
)
from .target import Side, SubLink, load_rcs_table_csv, multi_point_target


# ---------------------------------------------------------------------------
# Channel assembly
# ---------------------------------------------------------------------------

def _child_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def _stage_seeds(seed: int) -> list[np.random.SeedSequence]:
    """The run's four child seed sequences, spawned off the scenario seed:
    background, PCF, targets and sounder noise."""
    return np.random.SeedSequence(seed).spawn(4)


def _los_sublink(side: Side, endpoint: np.ndarray, sp_pos,
                 spec: TargetSpec, seed: int) -> tuple[SubLink, float]:
    """Sub-link with a geometric line-of-sight ray plus statistical
    clusters, and the hop's length in meters.

    The LOS ray carries the exact geometric delay and the target-side
    angle, from which target.concatenate takes its Doppler.
    """
    sp_pos = np.asarray(sp_pos, dtype=float)
    d = float(np.linalg.norm(sp_pos - endpoint))
    to_endpoint = angle_from_vector(endpoint - sp_pos)
    to_target = angle_from_vector(sp_pos - endpoint)
    if side is Side.TX_TO_TARGET:
        aod, aoa = to_target, to_endpoint  # departs the Tx, arrives at the target
    else:
        aod, aoa = to_endpoint, to_target  # departs the target, arrives at the Rx
    los = ClusterSet._make(dict(power=1.0, delay=[d / C_LIGHT], aod=aod, aoa=aoa, xpr=1e12,
                                phases=0.0, bounce_order=0))  # angle_from_vector checked d
    if spec.profile.n_clusters == 0:
        return SubLink(side, los), d
    sampled = sample_clusters(spec.profile, seed)
    return SubLink(side, with_los_ray(sampled, los, 10.0 ** (spec.k_factor_db / 10.0))), d


def _scattering_point(spec: TargetSpec, i: int) -> ScatteringPoint:
    """Target i's scattering point, its RCS table read from its CSV file."""
    try:
        rcs = load_rcs_table_csv(spec.rcs) if isinstance(spec.rcs, Path) else spec.rcs
    except (OSError, ValueError) as exc:
        raise ValueError(f"targets[{i}].rcs.csv must name a readable RCS table, "
                         f"got {str(spec.rcs)!r}: {exc}") from None
    return ScatteringPoint(spec.position_m, spec.velocity_mps, rcs)


def _aim(antenna: AntennaModel, from_pos: np.ndarray, at_pos: np.ndarray) -> AntennaModel:
    """A horn turned from ``from_pos`` toward ``at_pos``; with no direction
    to turn in (a mono-static Tx without a target) it keeps its boresight."""
    if antenna.kind != "horn" or np.array_equal(from_pos, at_pos):
        return antenna
    boresight = angle_from_vector(np.asarray(at_pos, float) - np.asarray(from_pos, float))
    return AntennaModel(antenna.kind, antenna.hpbw_deg, antenna.peak_gain_db, boresight)


class SimulationResult(Record):
    __slots__ = ("target_cir", "background_cir", "pl_tar_db", "pl_back_db", "o_back",
                 "wavelength")

    def __init__(self, target_cir: Cir, background_cir: Cir, pl_tar_db: tuple[float, ...],
                 pl_back_db: float, o_back: float, wavelength: float):
        self._fill(target_cir, background_cir, pl_tar_db, pl_back_db, o_back, wavelength)


def simulate_channels(config: ScenarioConfig) -> SimulationResult:
    """Assemble the target and background CIRs for one scenario."""
    wl = wavelength_m(config.carrier_freq_hz)
    bg_seq, pcf_seq, target_seq, _ = _stage_seeds(config.seed)

    # the Tx horn points at the first target, or at the Rx without one
    tx_pos, rx_pos = config.tx.position_m, config.rx.position_m
    tx_ant = _aim(config.tx.antenna, tx_pos,
                  config.targets[0].position_m if config.targets else rx_pos)

    # target channel: one concatenated pair per scattering point, none without targets
    contributions = []
    seqs = target_seq.spawn(len(config.targets))
    for i, (spec, seq) in enumerate(zip(config.targets, seqs)):
        seed_a, seed_b = (_child_seed(s) for s in seq.spawn(2))
        sp = _scattering_point(spec, i)
        sub_a, d1 = _los_sublink(Side.TX_TO_TARGET, tx_pos, sp.position, spec, seed_a)
        sub_b, d2 = _los_sublink(Side.TARGET_TO_RX, rx_pos, sp.position, spec, seed_b)
        contributions.append((sp, sub_a, sub_b,
                              free_space_loss_db(d1, wl) + free_space_loss_db(d2, wl)))
    target_cir = multi_point_target(contributions, wl, tx_antenna=tx_ant)
    pl_tar = tuple(pl for *_, pl in contributions)

    # background channel
    if config.background.mode == "statistical":
        bg_cir = background_bistatic(config.background.profile, _child_seed(bg_seq), tx_ant)
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
               "aoa_az_deg", "aoa_el_deg", "bounce_order")


# one path record, each field a JSON text
_RECORD = "{" + ",".join(f'"{key}":%s' for key in RECORD_KEYS) + "}"
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
                _json_texts(cir.bounce_order[rows]),
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
    amp = np.array([r["amp_re"] for r in recs], dtype=complex)
    amp.imag = [r["amp_im"] for r in recs]  # set, not added, so that signed zeros survive
    return Cir.from_columns(
        [r["delay_s"] for r in recs], amp, [r["doppler_hz"] for r in recs],
        aod_az=np.radians([r["aod_az_deg"] for r in recs]),
        aod_el=np.radians([r["aod_el_deg"] for r in recs]),
        aoa_az=np.radians([r["aoa_az_deg"] for r in recs]),
        aoa_el=np.radians([r["aoa_el_deg"] for r in recs]),
        bounce_order=[r["bounce_order"] for r in recs])


def write_path_table(path, cir: Cir) -> None:
    """Write the CIR's columns bit for bit as one .npy array of PATH_RECORD
    records, one per path, in the CIR's row order."""
    table = np.empty(len(cir), dtype=PATH_RECORD)
    for name in COLUMNS:
        table[name] = getattr(cir, name)
    with open(path, "wb") as f:
        np.save(f, table, allow_pickle=False)


def _table_header(n: int) -> bytes:
    """The .npy header np.save writes for n PATH_RECORD rows."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": _RECORD_DESCR, "fortran_order": False, "shape": (n,)})
    return buf.getvalue()


_RECORD_DESCR = np.lib.format.dtype_to_descr(PATH_RECORD)
_HEADER_LEN = len(_table_header(0))


def _read_records(f) -> np.ndarray:
    """The array in an open .npy file. A file of the size and header that
    write_path_table gives some row count is read as those rows directly;
    any other goes through np.lib.format.read_array, which checks it."""
    size = os.fstat(f.fileno()).st_size
    n = max(0, size - _HEADER_LEN) // PATH_RECORD.itemsize
    header = _table_header(n)
    if len(header) + n * PATH_RECORD.itemsize == size and f.read(len(header)) == header:
        table = np.fromfile(f, dtype=PATH_RECORD, count=n)
        if len(table) == n:
            return table
    f.seek(0)
    return np.lib.format.read_array(f, allow_pickle=False)


def read_path_table(path) -> Cir:
    """The CIR in a path table that write_path_table wrote. The file must
    hold exactly one one-dimensional array of PATH_RECORD records, and
    Cir.from_columns checks every value; otherwise a ValueError names the
    file. The .npy format is read directly, so nothing is ever unpickled."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            table = _read_records(f)
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
        return Cir.from_columns(*(table[name] for name in COLUMNS))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 16):  # a 1 MiB buffer adds 1 MiB to the peak RSS
            h.update(block)
    return h.hexdigest()


class RunReport(ValueRecord):
    __slots__ = ("manifest", "timings_s", "out_dir")

    def __init__(self, manifest: dict[str, str], timings_s: dict[str, float], out_dir: str):
        self._fill(manifest, timings_s, out_dir)


def _scan_input(target_cir: Cir, bg_cir: Cir, config: ScenarioConfig):
    """The combined sensing CIR, the delay-bin width (one over the
    bandwidth), and the scan angles and delay bins a scan of it uses; a
    scan of more than MAX_SCAN_CELLS cells is refused before it is built."""
    combined = Cir.concat([target_cir, bg_cir])
    bin_w = 1.0 / config.bandwidth_hz
    max_delay = combined.delay.max(initial=0.0) + 2 * bin_w
    angles = config.scan_angles_deg()
    if len(angles) * (max_delay / bin_w) > MAX_SCAN_CELLS:
        raise ValueError(f"bandwidth_hz {config.bandwidth_hz!r} gives {max_delay / bin_w:.4g} "
                         f"delay bins at each of {len(angles)} scan angles: a scan may have "
                         f"at most {MAX_SCAN_CELLS} cells")
    return combined, bin_w, angles, delay_grid(max_delay, bin_w)


def _target_peaks(target_cir: Cir, bg_cir: Cir, config: ScenarioConfig,
                  peak_threshold_db: float, source) -> tuple[list[PadpPeak], float]:
    """The target peaks of a scan of the sensing CIR against one of the background
    alone, and the bin width; ``source`` names the CIRs in the error of an empty scan."""
    combined, bin_w, angles, bins = _scan_input(target_cir, bg_cir, config)
    with_target = turntable_scan(combined, config.rx.antenna, angles, bins)
    if not with_target.power.any():
        raise ValueError(f"{source}: PADP is empty: the scan finds no power in any stored path")
    without_target = turntable_scan(bg_cir, config.rx.antenna, angles, bins)
    return subtract_background(with_target, without_target, peak_threshold_db), bin_w


# the files simulate writes and report.json's manifest hashes
OUTPUT_FILES = ("target.json", "background.json", "target.npy", "background.npy", "padp.csv")


def run_simulate(config: ScenarioConfig, out_dir=None) -> RunReport:
    """Simulate one scenario and write OUTPUT_FILES and report.json into
    the output directory: the path lists as JSON for people and other
    tools, and as the path tables that analyze reads."""
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    sim = simulate_channels(config)
    timings["simulate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    combined, _, angles, bins = _scan_input(sim.target_cir, sim.background_cir, config)
    grid = turntable_scan(combined, config.rx.antenna, angles, bins)
    timings["scan"] = time.perf_counter() - t0

    out = Path(config.outputs if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
                   "link_budget": budget, "config": config.raw}, f, indent=1)
    return report


# ---------------------------------------------------------------------------
# Analyze
# ---------------------------------------------------------------------------

def run_analyze(run_dir, scene_path=None, peak_threshold_db=PEAK_THRESHOLD_DB) -> list[dict]:
    """Re-scan the stored path tables, separate target from background
    peaks, optionally classify bounce orders, and write paths.json."""
    run_dir = Path(run_dir)
    report_path = run_dir / "report.json"
    report = read_json(report_path, "; simulate again")
    if not isinstance(report, dict) or "config" not in report:
        raise ValueError(f"{report_path} has no config; simulate again")
    # the stored tables hold the paths: no file the config names is opened
    config = parse_config(report["config"], run_dir)
    scene = load_scene(scene_path) if scene_path is not None else None

    peaks, bin_w = _target_peaks(read_path_table(run_dir / "target.npy"),
                                 read_path_table(run_dir / "background.npy"),
                                 config, peak_threshold_db, run_dir)
    bounce = None
    if scene is not None:
        bounce = [classify_bounce(pk, scene, delay_tol=bin_w,
                                  angle_tol_deg=config.scan_step_deg / 2.0)
                  for pk in peaks]
    return write_paths_json(run_dir / "paths.json", peaks, bounce)


# ---------------------------------------------------------------------------
# Validate
# ---------------------------------------------------------------------------

# the columns of concatenated_power_checks.csv, with their types
CONCAT_POWER_COLUMNS = {"path_id": str, "p_n1_db": float, "p_n2_db": float, "sigma_dbsm": float,
                        "p_conv_db": float, "p_meas_db": float, "delta_p_db": float,
                        "tol_db": float, "note": str}

class ValidationRow(ValueRecord):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self._fill(name, passed, detail)


class ValidationReport(ValueRecord):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[ValidationRow, ...]):
        self._fill(rows)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rows)

    def print(self) -> None:
        for r in self.rows:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        n_fail = sum(not r.passed for r in self.rows)
        print(f"{len(self.rows) - n_fail}/{len(self.rows)} checks passed")


def _concat_power_row(rec: dict, directory: Path) -> ValidationRow:
    """A concatenated-power row run through the model: the power of the one target
    peak found in a channel with omni antennas, the Tx at the origin, the target at
    (d1, 0, 0), the Rx at (d1, d2, 0), each hop d = lambda / (4 pi) 10^(-p / 20) long
    for its sub-link power p, a LOS-only target of the row's RCS, a one-ray
    background and a PCF of 1, against p_conv_db."""
    name = f"concat-power {rec['path_id']}"
    ambiguous = "sigma_sign_ambiguous" in rec["note"]
    carrier = 6.9e9  # Hz, the carrier of the measured path powers
    hops = []
    for key in ("p_n1_db", "p_n2_db"):
        try:
            d = wavelength_m(carrier) / (4.0 * math.pi) * 10.0 ** (-rec[key] / 20.0)
        except OverflowError:
            d = math.inf
        if not 0.0 < d < math.inf:  # a NaN power, or one past a float's range
            return ValidationRow(name, False, f"no channel: {key} {rec[key]!r} dB gives "
                                              "no finite hop length")
        hops.append(d)
    d1, d2 = hops
    try:
        config = parse_config({
            "name": name, "carrier_freq_hz": carrier, "bandwidth_hz": 1e9,
            "sensing_mode": "bi_static", "rx": {"position_m": [d1, d2, 0.0]},
            "targets": [{"position_m": [d1, 0.0, 0.0], "sublink": {"n_clusters": 0},
                         "rcs": {"sigma_dbsm": -rec["sigma_dbsm"] if ambiguous
                                 else rec["sigma_dbsm"]}}],
            "background": {"mode": "statistical",
                           "profile": {"n_clusters": 1, "rays_per_cluster": 1}},
            "pcf": {"value": 1.0}, "seed": 0}, directory)
        sim = simulate_channels(config)
        # 100 dB keeps the target's peak, up to 39 dB below the background's on the packaged rows
        peaks, _ = _target_peaks(sim.target_cir, sim.background_cir, config, 100.0, name)
    except (ValueError, OverflowError) as exc:
        return ValidationRow(name, False, "no channel: " + " ".join(str(exc).split()))
    if len(peaks) != 1:
        return ValidationRow(name, False, f"{len(peaks)} target peaks, not 1")
    resid = peaks[0].power_db - rec["p_conv_db"]
    note = " (sigma sign flipped per annotation)" if ambiguous else ""
    return ValidationRow(name, abs(resid) <= rec["tol_db"],
                         f"residual {resid:+.4f} dB, tol {rec['tol_db']} dB{note}")


def run_validate(golden_dir=None) -> ValidationReport:
    """Check the model against the golden measurement tables: each concatenated
    path power through a simulated channel; the measured delta-P, the bounce
    proportions' column sums and the PCF means by arithmetic."""
    golden = Path(golden_dir) if golden_dir is not None else packaged_golden_dir()
    rows: list[ValidationRow] = []

    abs_dps = []
    for rec in golden_rows(golden, "concatenated_power_checks.csv", CONCAT_POWER_COLUMNS):
        rows.append(_concat_power_row(rec, golden))
        dp = delta_p(rec["p_conv_db"], rec["p_meas_db"])
        dp_resid = dp - rec["delta_p_db"]
        abs_dps.append(abs(dp))
        rows.append(ValidationRow(f"delta-P {rec['path_id']}", abs(dp_resid) <= 0.01,
                                  f"residual {dp_resid:+.4f} dB"))
    rows.append(ValidationRow("max |delta-P| <= 7 dB", max(abs_dps) <= 7.0,
                              f"max {max(abs_dps):.2f} dB"))
    rows.append(ValidationRow("min |delta-P| = 0.11 dB", abs(min(abs_dps) - 0.11) <= 0.005,
                              f"min {min(abs_dps):.2f} dB"))

    for rec in golden_rows(golden, "bounce_power_proportions.csv",
                           {"case": str, "pp0_pct": float, "pp1_pct": float,
                            "pp2plus_pct": float}):
        total = rec["pp0_pct"] + rec["pp1_pct"] + rec["pp2plus_pct"]
        rows.append(ValidationRow(f"proportions {rec['case']} column sum",
                                  abs(total - 100.0) <= 0.1, f"sum {total:.3f}%"))

    pcf_rows = golden_rows(golden, "pcf_measurements.csv", PCF_COLUMNS)
    for cond, expected_mean in (("los_los", 0.817), ("los_nlos", 0.915)):
        vals = [r["o_back"] for r in pcf_rows if r["condition"] == cond]
        mean = sum(vals) / len(vals) if vals else math.nan  # nan fails the check
        model_mean = default_pcf_model(cond).mean
        rows.append(ValidationRow(
            f"PCF {cond} mean = {expected_mean}",
            abs(mean - expected_mean) <= 1e-12 and abs(model_mean - expected_mean) <= 1e-12,
            f"golden mean {mean:.6f}, default model mean {model_mean:.6f}"))

    return ValidationReport(tuple(rows))


# ---------------------------------------------------------------------------
# Sounder round trip
# ---------------------------------------------------------------------------

def run_sounder_roundtrip(config: ScenarioConfig, out_dir=None) -> dict:
    """Push the simulated sensing CIR through the sliding-correlation
    pipeline and report how well the paths survive."""
    sim = simulate_channels(config)
    combined = Cir.concat([sim.target_cir, sim.background_cir])
    if len(combined) == 0:
        raise ValueError("scenario produced no paths to sound")

    pn = generate_pn(config.sounder_m, chip_rate=config.bandwidth_hz)
    longest = combined.delay.max()
    if longest >= pn.period_s:
        raise ValueError(f"bandwidth_hz {config.bandwidth_hz!r} and sounder.register_length "
                         f"{config.sounder_m} give a PN period of {pn.period_s * 1e9:.4g} ns, "
                         f"not longer than the longest path delay, {longest * 1e9:.4g} ns: "
                         "the range would be ambiguous")
    out = Path(config.outputs if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    capture = transmit_through(combined, pn, config.sounder_snr_db,
                               _child_seed(_stage_seeds(config.seed)[3]))
    result = process_capture(capture)
    save_capture(capture, out / "capture.bin")

    # ground truth at the sounder's own resolution: coherent chip-width
    # binning, keeping bins within the detection threshold of the peak
    chip = 1.0 / config.bandwidth_hz
    merged = merge_paths(combined, chip / 2, math.pi)
    powers = merged.powers()
    floor = powers.max() * 10.0 ** (-DETECTION_THRESHOLD_DB / 10.0)
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
