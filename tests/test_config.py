"""The key tables of the scenario and scene files: every bad value is one
config error naming its key path, through the CLI and over generated
edits of the shipped inputs; the README's key tables match the code."""
import copy
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isacsim import runner
from isacsim.cli import main as cli_main
from isacsim.config import (LEAF_TYPES, REQUIRED, SCENARIO, SCENE, ConfigError, Tagged,
                            parse_config, parse_scene)

ROOT = Path(__file__).parents[1]
CONFIG_DIR = ROOT / "demos" / "configs"
SHIPPED_CONFIGS = sorted(p for p in CONFIG_DIR.glob("*.json") if "scene" not in p.name)
SHIPPED_SCENE = CONFIG_DIR / "indoor_human_scene.json"
DELETE = object()


def _load(name: str):
    return json.loads((CONFIG_DIR / name).read_text())


def _edit(doc, path: tuple, value):
    """``doc`` with the value at ``path`` replaced, or deleted for DELETE."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


RIS = "bistatic_ris_factory.json"
HALL = "monostatic_hall.json"
HUMAN = "bistatic_indoor_human.json"
TARGET0 = ("targets", 0)
SCATTERER0 = ("background", "scatterers", 0)

CONFIG_CASES = [
    (RIS, ("name",), None, "name must be a string, got None"),
    (RIS, ("name",), "", "name must be non-empty, got ''"),
    (RIS, ("rx", "antenna", "peak_gain_db"), None,
     "rx.antenna.peak_gain_db must be a number, got None"),
    (RIS, TARGET0 + ("rcs", "sigma_dbsm"), None,
     "targets[0].rcs.sigma_dbsm must be a number, got None"),
    (RIS, TARGET0 + ("rcs", "sigma_dbsm"), "x",
     "targets[0].rcs.sigma_dbsm must be a number, got 'x'"),
    (RIS, ("targets",), 5, "targets must be a list, got 5"),
    (RIS, ("targets",), {}, "targets must be a list, got {}"),
    (RIS, ("tx", "position_m"), [0, 0], "tx.position_m must be a list of 3 numbers, got [0, 0]"),
    (RIS, ("tx", "position_m"), "a", "tx.position_m must be a list of 3 numbers, got 'a'"),
    (RIS, TARGET0 + ("velocity_mps",), None,
     "targets[0].velocity_mps must be a list of 3 numbers, got None"),
    (RIS, TARGET0 + ("sublink", "n_clusters"), 4.7,
     "targets[0].sublink.n_clusters must be an integer, got 4.7"),
    (RIS, TARGET0 + ("sublink", "n_clusters"), "4",
     "targets[0].sublink.n_clusters must be an integer, got '4'"),
    (RIS, TARGET0 + ("sublink", "n_clusters"), -1,
     "targets[0].sublink.n_clusters must be >= 0, got -1"),
    (RIS, TARGET0 + ("sublink", "rays_per_cluster"), True,
     "targets[0].sublink.rays_per_cluster must be an integer, got True"),
    (RIS, ("carrier_freq_hz",), True, "carrier_freq_hz must be a number, got True"),
    (RIS, ("carrier_freq_hz",), math.nan, "carrier_freq_hz must be a number, got nan"),
    (RIS, ("carrier_freq_hz",), math.inf, "carrier_freq_hz must be a number, got inf"),
    # lambda^2 underflows to zero, lambda overflows, a target amplitude overflows
    *((HUMAN, ("carrier_freq_hz",), f, "carrier_freq_hz must be a frequency whose spreading "
       f"factor 4 pi f^2 / c^2 is within ±300 dB, got {f!r}") for f in (1e300, 1e-299, 1e163)),
    (RIS, ("bandwidth_hz",), "4e8", "bandwidth_hz must be a number, got '4e8'"),
    # the Gaussian lobe's exponent overflows, and no path reaches the Rx
    (HUMAN, ("rx", "antenna", "hpbw_deg"), 1e-300, "rx.antenna.hpbw_deg must be a width "
     "whose directivity 4 pi / (hpbw in rad)^2 is within ±300 dB, got 1e-300"),
    # numpy cannot allocate the angles
    (HUMAN, ("scan", "step_deg"), 1e-300,
     "scan.step_deg must leave at most 1000000 scan angles, got 1e-300 (3.6e+302 angles)"),
    (RIS, ("sounder", "register_length"), 11.9,
     "sounder.register_length must be an integer, got 11.9"),
    (RIS, ("sounder", "register_length"), 0,
     "sounder.register_length must be between 3 and 15, got 0"),
    (RIS, ("sounder", "register_length"), 2,
     "sounder.register_length must be between 3 and 15, got 2"),
    (RIS, ("sounder", "register_length"), 16,
     "sounder.register_length must be between 3 and 15, got 16"),
    (RIS, ("sounder", "register_length"), 20,
     "sounder.register_length must be between 3 and 15, got 20"),
    (RIS, ("sounder", "snr_db"), math.nan, "sounder.snr_db must be a number, got nan"),
    (RIS, ("scan", "stop_deg"), math.nan, "scan.stop_deg must be a number, got nan"),
    (RIS, ("outputs",), 5, "outputs must be a string, got 5"),
    (RIS, ("background", "profile", "angle_spread_deg"), -1,
     "background.profile.angle_spread_deg must be >= 0, got -1"),
    (HALL, ("background", "scatterers"), 5, "background.scatterers must be a list, got 5"),
    (HALL, ("background", "scatterers"), [5],
     "background.scatterers[0] must be an object, got 5"),
    (HALL, SCATTERER0 + ("position_m",), DELETE,
     "background.scatterers[0].position_m is missing: it must be a list of 3 numbers"),
    (HALL, SCATTERER0 + ("reflection_gain_db",), None,
     "background.scatterers[0].reflection_gain_db must be a number, got None"),
    (HALL, SCATTERER0 + ("label",), 7, "background.scatterers[0].label must be a string, got 7"),
    (RIS, ("pcf",), {"value": 0.5, "mean": 0.8}, "pcf.mean is not a known key"),
    (RIS, ("pcf",), {"condition": "los_nlos", "std": 0.5}, "pcf.std is not a known key"),
    (RIS, TARGET0 + ("rcs", "variant"), [1], "targets[0].rcs.variant must be a string, got [1]"),
    (RIS, TARGET0 + ("rcs", "variant"), "cosine_lobe",
     "targets[0].rcs.variant must be 'constant' or 'table', got 'cosine_lobe'"),
    (HALL, ("background", "mode"), [1], "background.mode must be a string, got [1]"),
    (RIS, ("rx", "position_m"), [0.0, 0.0, 1.5],
     "bi_static requires tx.position_m != rx.position_m"),
    (RIS, TARGET0 + ("position_m",), [0.0, 0.0, 1.5],
     "targets[0].position_m must differ from tx.position_m"),
    (RIS, TARGET0 + ("position_m",), [8.0, -3.0, 1.5],
     "targets[0].position_m must differ from rx.position_m"),
    (RIS, TARGET0 + ("velocity_mps",), [3e8, 0.0, 0.0],
     "targets[0].velocity_mps must be a speed below 299792458 m/s, "
     "got [300000000.0, 0.0, 0.0]"),
    # the speed, not one component, is what light bounds
    (RIS, TARGET0 + ("velocity_mps",), [2.2e8, 2.2e8, 0.0],
     "targets[0].velocity_mps must be a speed below 299792458 m/s, "
     "got [220000000.0, 220000000.0, 0.0]"),
]


@pytest.mark.parametrize("base, path, value, message", CONFIG_CASES,
                         ids=[f"{'.'.join(map(str, c[1]))}={c[2]!r}" for c in CONFIG_CASES])
def test_bad_config_value_is_one_violation(tmp_path, capsys, base, path, value, message):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(_edit(_load(base), path, value)))
    assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"invalid scenario config:\n  - {message}\n"
    assert not (tmp_path / "run").exists()


# dB values large enough to overflow a float once linearized, or to make a
# drawn power non-finite: each is one violation that names its key
DB_CASES = [
    (RIS, TARGET0 + ("sublink", "k_factor_db"), 4000, "simulate"),
    (RIS, TARGET0 + ("sublink", "k_factor_db"), 4000, "sounder-roundtrip"),
    (RIS, TARGET0 + ("sublink", "k_factor_db"), -4000, "simulate"),
    (RIS, ("tx", "antenna", "peak_gain_db"), 4000, "simulate"),
    (RIS, ("tx", "antenna", "peak_gain_db"), 4000, "sounder-roundtrip"),
    (RIS, ("background", "profile", "xpr_mean_db"), 4000, "simulate"),
    (RIS, ("background", "profile", "xpr_mean_db"), 4000, "sounder-roundtrip"),
    (RIS, ("background", "profile", "xpr_std_db"), 1e6, "simulate"),
    (RIS, ("background", "profile", "shadow_std_db"), 1e6, "simulate"),
    (RIS, TARGET0 + ("sublink", "shadow_std_db"), 31, "simulate"),
    (RIS, TARGET0 + ("rcs", "sigma_dbsm"), 4000, "simulate"),
    (RIS, ("sounder", "snr_db"), -4000, "sounder-roundtrip"),
    (HALL, SCATTERER0 + ("reflection_gain_db",), 4000, "simulate"),
]


@pytest.mark.parametrize("base, path, value, command", DB_CASES,
                         ids=[f"{c[3]}:{'.'.join(map(str, c[1]))}={c[2]!r}" for c in DB_CASES])
def test_db_value_out_of_range_names_its_key(tmp_path, capsys, base, path, value, command):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(_edit(_load(base), path, value)))
    assert cli_main([command, str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario config:\n  - ")
    assert err.count("\n  - ") == 1 and "Traceback" not in err
    assert err.split("\n  - ")[1].startswith(f"{_spelled(path)} must be between ")


def test_carrier_out_of_range_exits_2_naming_its_key(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(_edit(_load(HUMAN), ("carrier_freq_hz",), 1e300)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from isacsim.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), "simulate",
                           str(cfg_path), "--out", str(tmp_path / "run")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    named = [line for line in proc.stderr.splitlines() if "carrier_freq_hz" in line]
    assert len(named) == 1 and named == proc.stderr.splitlines()[1:], proc.stderr


@pytest.mark.parametrize("carrier_hz", [8.5e-8, 8.4e22])  # just inside the rule's ±300 dB
@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[p.stem for p in SHIPPED_CONFIGS])
def test_carrier_at_the_rule_limits_runs(tmp_path, capsys, config, carrier_hz):
    cfg_path = tmp_path / config.name
    cfg_path.write_text(json.dumps(_edit(_load(config.name), ("carrier_freq_hz",), carrier_hz)))
    run = tmp_path / "run"
    for argv in (["simulate", str(cfg_path), "--out", str(run)],
                 ["analyze", str(run), "--threshold-db", "120"],
                 ["sounder-roundtrip", str(cfg_path), "--out", str(tmp_path / "roundtrip")]):
        assert cli_main(argv) == 0, (argv[0], capsys.readouterr().err)


@pytest.mark.parametrize("rcs_dbsm", [4000.0, -301.0])
def test_rcs_table_out_of_range_names_its_key(tmp_path, capsys, rcs_dbsm):
    (tmp_path / "rcs.csv").write_text(
        "az_in_deg,el_in_deg,az_out_deg,el_out_deg,rcs_dbsm\n"
        f"0,0,0,0,5.0\n0,0,90,0,{rcs_dbsm}\n")
    doc = _edit(_load(RIS), TARGET0 + ("rcs",), {"variant": "table", "csv": "rcs.csv"})
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: targets[0].rcs.csv must name ")
    assert "outside ±300 dBsm" in err and "Traceback" not in err


@pytest.mark.parametrize("az_in_deg", ["inf", "nan"])
def test_rcs_table_axis_not_finite_names_its_key(tmp_path, capsys, az_in_deg):
    (tmp_path / "rcs.csv").write_text(
        "az_in_deg,el_in_deg,az_out_deg,el_out_deg,rcs_dbsm\n"
        f"0,0,0,0,5.0\n{az_in_deg},0,0,0,8.0\n")
    doc = _edit(_load(RIS), TARGET0 + ("rcs",), {"variant": "table", "csv": "rcs.csv"})
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: targets[0].rcs.csv must name ")
    assert err.count("\n") == 1
    assert "axes must be finite and strictly increasing" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["simulate", "sounder-roundtrip"])
def test_rcs_table_missing_leaves_no_output_directory(tmp_path, capsys, command):
    # the parser accepts the name; the table is read where the target is built
    doc = _edit(_load(RIS), TARGET0 + ("rcs",), {"variant": "table", "csv": "absent.csv"})
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    assert parse_config(doc, tmp_path).targets[0].rcs == tmp_path / "absent.csv"
    assert cli_main([command, str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: targets[0].rcs.csv must name a readable RCS table, "
        f"got '{tmp_path / 'absent.csv'}': [Errno 2] No such file or directory: "
        f"'{tmp_path / 'absent.csv'}'\n")
    assert not (tmp_path / "out").exists()


SCENE_CASES = [
    (("target_m",), DELETE, "target_m is missing: it must be a list of 3 numbers"),
    (("reflectors", 0, "position_m"), DELETE,
     "reflectors[0].position_m is missing: it must be a list of 3 numbers"),
    ((), [1, 2], "a scene must be a JSON object"),
    (("reflector",), [], "reflector is not a known key; did you mean 'reflectors'?"),
    (("target_m",), [1, 2], "target_m must be a list of 3 numbers, got [1, 2]"),
]


@pytest.fixture(scope="module")
def human_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("human") / "run"
    assert cli_main(["simulate", str(CONFIG_DIR / "bistatic_indoor_human.json"),
                     "--out", str(run_dir)]) == 0
    return run_dir


@pytest.mark.parametrize("path, value, message", SCENE_CASES,
                         ids=["no-target_m", "no-reflector-position", "list", "typo", "2-vector"])
def test_bad_scene_value_is_one_violation(tmp_path, capsys, human_run, path, value, message):
    scene = value if not path else _edit(_load(SHIPPED_SCENE.name), path, value)
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    capsys.readouterr()
    assert cli_main(["analyze", str(human_run), "--scene", str(scene_path)]) == 2
    assert capsys.readouterr().err == f"invalid scene file:\n  - {message}\n"
    assert not (human_run / "paths.json").exists()


def test_bad_scene_fails_before_any_scan(tmp_path, capsys, monkeypatch, human_run):
    scans = []
    scan = runner.turntable_scan
    monkeypatch.setattr(runner, "turntable_scan", lambda *a, **k: scans.append(1) or scan(*a, **k))
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(_edit(_load(SHIPPED_SCENE.name), ("target_m",), DELETE)))
    capsys.readouterr()
    assert cli_main(["analyze", str(human_run), "--scene", str(scene_path)]) == 2
    assert capsys.readouterr().err == ("invalid scene file:\n"
                                       "  - target_m is missing: it must be a list of 3 numbers\n")
    assert scans == []


@pytest.mark.parametrize("argv", [
    ["simulate", "{dir}"],
    ["sounder-roundtrip", "{dir}"],
    ["analyze", "{run}", "--scene", "{dir}"],
], ids=["simulate", "sounder-roundtrip", "analyze"])
def test_directory_as_input_file_exits_2(tmp_path, capsys, human_run, argv):
    argv = [a.format(dir=tmp_path, run=human_run) for a in argv]
    capsys.readouterr()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


# -- generated edits of the shipped inputs -------------------------------------

REPLACEMENTS = [None, True, "x", math.nan, math.inf, -math.inf, -1, 0, 4.7, [], {},
                [0, 0], [1]]
# the violations of a rule across keys, as patterns
CROSS_FIELD = (r"mono_static requires tx\.position_m == rx\.position_m",
               r"bi_static requires tx\.position_m != rx\.position_m",
               r"mono_static sensing requires background\.mode = geometric",
               r"bi_static sensing requires background\.mode = statistical",
               r"scan\.stop_deg must exceed scan\.start_deg",
               r"scan\.step_deg \S+ does not divide the range \S+",
               r"a scene must be a JSON object")


def _key_paths(doc, path=()):
    """Every key path of a JSON document, as tuples of keys and indices."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _key_paths(value, path + (key,))


def _spelled(path: tuple) -> str:
    """A key path as violations spell it: ``targets[0].rcs.variant``."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else key)
    return out


DOCUMENTS = [(p.name, _load(p.name)) for p in SHIPPED_CONFIGS] + [("scene", _load(SHIPPED_SCENE.name))]


@st.composite
def edited_documents(draw):
    """A shipped input with one edit at a random key path: the key
    deleted, its value replaced, or a near-miss key added beside it."""
    name, doc = draw(st.sampled_from(DOCUMENTS))
    path = draw(st.sampled_from(list(_key_paths(doc))))
    edit = draw(st.sampled_from(["delete", "replace", "near-miss"]))
    if edit == "delete":
        return name, _edit(doc, path, DELETE), path
    if edit == "near-miss" and isinstance(path[-1], str):
        key = path[-1]
        near = draw(st.sampled_from([key[:-1], key + "s", key.upper(), key.replace("_", "")]))
        return name, _edit(doc, path[:-1] + (near,), 1), None
    return name, _edit(doc, path, draw(st.sampled_from(REPLACEMENTS))), None


def _check_edited(name, doc, deleted):
    """The reader returns or raises ConfigError, and every violation is a
    cross-field rule or starts with a key path of the edited document; a
    missing key is named under an object of the document, the top level
    or the deleted key, whose default it read."""
    try:
        if name == "scene":
            parse_scene(doc)
        else:
            parse_config(doc, CONFIG_DIR)
        return
    except ConfigError as exc:
        violations = exc.violations
    known = {_spelled(p) for p in _key_paths(doc)}
    for violation in violations:
        if any(re.fullmatch(pattern, violation) for pattern in CROSS_FIELD):
            continue
        key, rest = violation.split(" ", 1)
        if rest.startswith("is missing: "):
            key = re.sub(r"(\.[^.\[]+|\[\d+\])$", "", key)  # the object that lacks it
            assert key in known | {"", deleted and _spelled(deleted)}, violation
        else:
            assert key in known, violation


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edited_documents())
def test_edited_inputs_parse_or_name_their_keys(case):
    _check_edited(*case)


@pytest.mark.parametrize("name, doc", DOCUMENTS, ids=[n for n, _ in DOCUMENTS])
def test_every_single_value_edit_parses_or_names_its_keys(name, doc):
    # the deletions and replacements of the generated edits, each at every key path
    for path in _key_paths(doc):
        _check_edited(name, _edit(doc, path, DELETE), path)
        for value in REPLACEMENTS:
            _check_edited(name, _edit(doc, path, value), None)


# -- the README's key tables ---------------------------------------------------

def _schema_rows(table, path="", when=""):
    """(key path, when, type, default, rule) of every key of a table,
    sections and tag keys included; a default of None is prose in the
    README and is not compared."""
    if isinstance(table, Tagged):
        if table.key:
            yield (f"{path}.{table.key}", when, "string", table.default,
                   " or ".join(map(repr, table.tables)))
        for name, sub in table.tables.items():
            yield from _schema_rows(sub, path, f"{table.key or 'form'} {name}")
        return
    for key, (kind, default, rule) in table.items():
        where = f"{path}.{key}" if path else key
        if isinstance(kind, (dict, Tagged)):
            yield where, when, "object", default, ""
            yield from _schema_rows(kind, where, when)
        elif isinstance(kind, list):
            yield where, when, "list of objects", default, ""
            yield from _schema_rows(kind[0], where + "[]", when)
        else:
            yield (where, when, LEAF_TYPES[kind][0].split(" ", 1)[1], default,
                   rule[0] if rule else "")


def _readme_rows(heading: str):
    text = (ROOT / "README.md").read_text()
    section = text.split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip().replace("`", "") for c in line.strip().strip("|").split("|")]
        if line.startswith("| `"):
            rows.append(tuple(cells))
    return rows


@pytest.mark.parametrize("heading, table", [("Scenario file", SCENARIO),
                                            ("Scene file", SCENE)])
def test_readme_key_table_matches_schema(heading, table):
    readme = _readme_rows(heading)
    schema = list(_schema_rows(table))
    assert [(r[0], r[1]) for r in readme] == [(s[0], s[1]) for s in schema]
    for (path, when, kind, _unit, default, rule), (_, _, s_kind, s_default, s_rule) in zip(
            readme, schema):
        assert (kind, rule) == (s_kind, s_rule), path
        if s_default is REQUIRED:
            assert default.startswith("required"), path
        elif s_default is not None:
            assert default == json.dumps(s_default), path
