"""isacsim: seedable ISAC sensing-channel simulator and analysis toolkit.

The sensing channel is synthesized as a target channel (two stochastic
sub-links concatenated through an angular RCS model at each scattering
point) plus a background channel (statistical for bi-static, geometric
for mono-static) coupled through a power control factor. Analysis
utilities reproduce the power-delay/angle processing, link-budget
arithmetic, bounce classification, and sliding-correlation sounder
round trip used to validate the model.
"""

from .core import (
    C_LIGHT,
    Cir,
    ConstantRcs,
    Origin,
    ScatteringPoint,
    TableRcs,
    angle_from_vector,
    linear_to_db,
    merge_paths,
    spreading_gain,
    spreading_gain_db,
    unit_vectors,
    wavelength_m,
)
from .gbsm import (
    OMNI,
    AntennaModel,
    ClusterSet,
    GenerationProfile,
    cross_polarization_matrix,
    doppler_shift,
    ray_coefficients,
    sample_clusters,
    synthesize_cir,
    with_los_ray,
)
from .target import Side, SubLink, concatenate, load_rcs_table_csv, multi_point_target
from .background import (
    GeometricScatterer,
    PcfModel,
    PCF_MEASUREMENTS,
    apply_pcf,
    background_bistatic,
    background_monostatic,
    default_pcf_model,
    pcf_values,
    sample_pcf,
)
from .linkbudget import (
    conv_path_power,
    delta_p,
    estimate_rcs,
    fit_rcs_line,
    free_space_loss_db,
    radar_pathloss,
)
from .analysis import (
    BounceResult,
    PadpPeak,
    PowerProportion,
    ReconstructionScene,
    ScanGrid,
    SharedPartition,
    classify_bounce,
    delay_grid,
    extract_paths,
    identify_shared,
    padp,
    power_proportion,
    sharing_degree,
    subtract_background,
    turntable_scan,
    write_padp_csv,
    write_paths_json,
)
from .sounder import (
    CaptureRecord,
    PnSequence,
    calibrate,
    estimate_paths,
    generate_pn,
    process_capture,
    save_capture,
    slide_correlate,
    sounder_roundtrip,
    transmit_through,
)

__version__ = "0.1.0"
