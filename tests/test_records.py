"""The package's records: immutable, with value equality where a record is a
value and identity equality where it holds arrays or big state, and a repr
that names the class and its fields. None of them is a dataclass, so none
generates code when its module is imported."""
import copy
import inspect
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from isacsim import (
    AntennaModel,
    ClusterSet,
    ConstantRcs,
    GenerationProfile,
    GeometricScatterer,
    PadpPeak,
    PcfModel,
    PowerProportion,
    ReconstructionScene,
    ScanGrid,
    ScatteringPoint,
    SharedPartition,
    Side,
    SubLink,
    TableRcs,
    generate_pn,
    transmit_through,
)
from isacsim.analysis import BounceResult
from isacsim.config import (BackgroundSpec, EndpointSpec, ScenarioConfig, Tagged, TargetSpec,
                            load_config)
from isacsim.core import Cir
from isacsim.runner import RunReport, SimulationResult, ValidationReport, ValidationRow
from isacsim.sounder import CalibrationResult, CaptureRecord, PnSequence, RoundTripResult

CONFIG = Path(__file__).parents[1] / "demos" / "configs" / "bistatic_ris_factory.json"

_RAY = dict(power=1.0, delay=0.0, aod=(0.0, 0.0), aoa=(0.0, 0.0))
_PEAK = (10.0, 1e-9, 2.0)


def _table_rcs():
    return TableRcs([0.0], [0.0, 0.5], [0.0], [0.0], [[[[1.0]], [[2.0]]]])


def _empty_cir():
    return Cir.concat([])


# (class, a function building one record, its fields in repr order, its
# fields left out of the repr, whether it compares by value). Each call
# of the builder makes a new record with equal fields.
RECORDS = [
    (ConstantRcs, lambda: ConstantRcs(1.5), ("sigma_dbsm",), (), True),
    (TableRcs, _table_rcs, ("az_in", "el_in", "az_out", "el_out", "values_dbsm"), (), False),
    (ScatteringPoint, lambda: ScatteringPoint([1.0, 2.0, 3.0]),
     ("position", "velocity", "rcs_model"), (), False),
    (TargetSpec, lambda: TargetSpec(np.ones(3), np.zeros(3), ConstantRcs(0.0),
                                    GenerationProfile(), 6.0),
     ("position_m", "velocity_mps", "rcs", "profile", "k_factor_db"), (), False),
    (EndpointSpec, lambda: EndpointSpec(np.zeros(3), AntennaModel()),
     ("position_m", "antenna"), (), False),
    (BackgroundSpec, lambda: BackgroundSpec("statistical", GenerationProfile()),
     ("mode", "profile", "scatterers"), (), True),
    (ScenarioConfig, lambda: load_config(CONFIG),
     ("name", "carrier_freq_hz", "bandwidth_hz", "tx", "rx", "targets", "background", "pcf",
      "scan_start_deg", "scan_stop_deg", "scan_step_deg", "seed", "outputs", "sounder_m",
      "sounder_snr_db"), ("raw",), False),
    (Tagged, lambda: Tagged("kind", "omni", {"omni": {}}), ("key", "default", "tables"), (),
     True),
    (ClusterSet, lambda: ClusterSet(**_RAY),
     ("power", "delay", "aod", "aoa", "xpr", "phases", "bounce_order"), (), False),
    (AntennaModel, lambda: AntennaModel("horn", 20.0, 3.0, (1.0, 0.1)),
     ("kind", "hpbw_deg", "peak_gain_db", "boresight"), (), False),
    (GenerationProfile, lambda: GenerationProfile(n_clusters=3),
     ("n_clusters", "rays_per_cluster", "delay_scale_s", "angle_spread_rad", "xpr_mean_db",
      "xpr_std_db", "shadow_std_db"), (), True),
    (SubLink, lambda: SubLink(Side.TX_TO_TARGET, _SHARED_RAYS), ("side", "clusters"), (),
     True),
    (PcfModel, lambda: PcfModel("los_los", 0.8, 0.1), ("condition", "mean", "std"), (), True),
    (GeometricScatterer, lambda: GeometricScatterer([1.0, 2.0, 3.0], -3.0, "wall"),
     ("position", "reflection_gain_db", "label"), (), False),
    (ScanGrid, lambda: ScanGrid([0.0, 5.0], [[1.0], [2.0]], [0.0, 1e-9]),
     ("angles_deg", "power", "delay_bins"), (), False),
    (PadpPeak, lambda: PadpPeak(*_PEAK), ("angle_deg", "delay_s", "power"), (), True),
    (ReconstructionScene,
     lambda: ReconstructionScene([0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 2.0, 0.0],
                                 (GeometricScatterer([2.0, -2.0, 0.0]),)),
     ("tx", "rx", "target", "reflectors"), ("routes",), False),
    (BounceResult, lambda: BounceResult(1, "Tx>ST>R0>Rx", 5.0, 1e-10),
     ("order", "route", "length_m", "residual_s"), (), True),
    (PowerProportion, lambda: PowerProportion(0.2, 0.3, 0.5),
     ("direct", "first_order", "higher_order"), (), True),
    (SharedPartition, lambda: SharedPartition((), (PadpPeak(*_PEAK),), (), 1),
     ("shared_pairs", "mono_only", "bi_only", "excluded"), (), True),
    (PnSequence, lambda: generate_pn(3), ("m", "taps", "chips", "chip_rate"), (),
     False),
    (CaptureRecord, lambda: transmit_through(_empty_cir(), _SHARED_PN, None, None),
     ("samples", "pn", "snr_db", "seed"), (), False),
    (CalibrationResult, lambda: CalibrationResult(np.ones(3), np.zeros(3, dtype=bool)),
     ("response", "flagged_bins"), (), False),
    (RoundTripResult, lambda: RoundTripResult([(0.0, 1 + 0j)], 0),
     ("recovered", "flagged_bins"), (), False),
    (SimulationResult, lambda: SimulationResult(_SHARED_CIR, _SHARED_CIR, (1.0,), 2.0, 0.9, 0.05),
     ("target_cir", "background_cir", "pl_tar_db", "pl_back_db", "o_back", "wavelength"), (),
     False),
    (RunReport, lambda: RunReport({"padp.csv": "ab"}, {"write": 0.1}, "out"),
     ("manifest", "timings_s", "out_dir"), (), True),
    (ValidationRow, lambda: ValidationRow("row", True, "ok"), ("name", "passed", "detail"), (),
     True),
    (ValidationReport, lambda: ValidationReport((ValidationRow("row", False, "bad"),)),
     ("rows",), (), True),
]
_SHARED_RAYS = ClusterSet(**_RAY)
_SHARED_PN = generate_pn(3)
_SHARED_CIR = _empty_cir()
_IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_class_is_listed():
    """Each class of the package that is built with field values is in RECORDS."""
    import isacsim.cli  # noqa: F401  (loads every module)
    listed = {cls for cls, *_ in RECORDS}
    modules = [m for name, m in sys.modules.items() if name.startswith("isacsim.")]
    found = {cls for m in modules for cls in vars(m).values()
             if inspect.isclass(cls) and cls.__module__ == m.__name__
             and "__init__" in vars(cls) and cls not in (Cir,)
             and not issubclass(cls, BaseException)}
    assert found == listed


@pytest.mark.parametrize("cls, build, fields, hidden, by_value", RECORDS, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, build, fields, hidden, by_value):
    record = build()
    assert type(record) is cls
    for name in fields + hidden + ("not_a_field",):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name, None) is before


@pytest.mark.parametrize("cls, build, fields, hidden, by_value", RECORDS, ids=_IDS)
def test_equality(cls, build, fields, hidden, by_value):
    a, b = build(), build()
    assert a == a
    if not by_value:
        assert a != b
        assert hash(a) != hash(b) and hash(a) == hash(a)
        return
    assert a == b and not a != b
    assert a != object()
    try:
        hash_a = hash(a)
    except TypeError:  # a field is a dict: the record is unhashable, as its fields are
        assert any(isinstance(getattr(a, name), dict) for name in fields)
        return
    assert hash_a == hash(b)


@pytest.mark.parametrize("cls, build, fields, hidden, by_value", RECORDS, ids=_IDS)
def test_repr_names_the_class_and_its_fields(cls, build, fields, hidden, by_value):
    record = build()
    expected = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({expected})"


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("cls, build, fields, hidden, by_value", RECORDS, ids=_IDS)
def test_copies_keep_every_field(cls, build, fields, hidden, by_value, duplicate):
    record = build()
    twin = duplicate(record)
    assert type(twin) is cls and repr(twin) == repr(record)
    assert all(getattr(twin, name) == getattr(record, name) for name in hidden)
    if duplicate is copy.copy:  # the same field objects
        assert (twin == record) is by_value
    with pytest.raises(AttributeError):
        setattr(twin, fields[0], 0)


@pytest.mark.parametrize("cls, build, fields, hidden, by_value", RECORDS, ids=_IDS)
def test_init_parameters_are_the_leading_fields(cls, build, fields, hidden, by_value):
    """Record._fill sets the fields in __slots__ order, so the parameters of
    __init__ name the first slots in order; only the unlisted fields derived
    from them come after: a scene's routes, a table's interpolation grid and
    a sequence's chip spectrum."""
    params = tuple(inspect.signature(cls.__init__).parameters)[1:]
    assert cls.__slots__[:len(params)] == params
    derived = {ReconstructionScene: ("routes",), TableRcs: ("_grid",),
               PnSequence: ("spectrum",)}.get(cls, ())
    assert cls.__slots__[len(params):] == derived
    assert set(derived) <= set(cls._unlisted)


def test_fill_refuses_more_values_than_fields():
    peak = PadpPeak(*_PEAK)
    with pytest.raises(TypeError, match="^PadpPeak takes 3 fields, got 4$"):
        peak._fill(1.0, 2.0, 3.0, 4.0)
    assert peak == PadpPeak(*_PEAK)


def test_fill_refuses_fewer_values_than_fields():
    """A record whose __init__ forgets a field fails when it is built."""
    peak = PadpPeak(*_PEAK)
    with pytest.raises(TypeError, match="^PadpPeak takes 3 fields, got 2$"):
        peak._fill(1.0, 2.0)
    assert peak == PadpPeak(*_PEAK)


def test_value_records_differ_in_any_field():
    assert PadpPeak(*_PEAK) != PadpPeak(10.0, 1e-9, 2.5)
    assert GenerationProfile() != GenerationProfile(xpr_std_db=2.0)
    assert hash(PcfModel("a", 1.0, 0.0)) == hash(PcfModel("a", 1.0, 0.0))
    assert ValidationRow("row", True, "ok") != ("row", True, "ok")


def test_no_record_is_a_dataclass():
    import isacsim.cli  # noqa: F401  (loads every module)
    classes = [f"{name}.{cls.__name__}" for name, m in list(sys.modules.items())
               if name == "isacsim" or name.startswith("isacsim.")
               for cls in vars(m).values()
               if inspect.isclass(cls) and hasattr(cls, "__dataclass_fields__")]
    assert classes == []
