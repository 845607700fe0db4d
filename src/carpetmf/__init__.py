"""Multifractal analysis of almost-multiplicative cylinder weights on
products of two full shifts, and of their projections to self-affine
Sierpinski carpets.

The package computes the two pressure functions of such a weight (the
Birkhoff pressure ``T`` and the Gibbs pressure ``beta``), their concave
conjugates (the multifractal spectra), local dimensions of the associated
Gibbs-like measures by exact tilted sampling, and geometric realizations on
the torus — each quantity along at least two independent routes so results
can be cross-verified.

Importing the package binds only ``TOOL_NAME``, ``TOOL_VERSION`` and
``__version__``, so that ``import carpetmf.cli`` loads only what the command
it runs needs.  The first lookup of any other public name, or of a submodule
not loaded yet, goes through the PEP 562 ``__getattr__`` below and imports
every submodule, as ``import carpetmf`` used to.  Inside the package,
``from .module import name`` keeps an import narrow; ``from . import
module`` of a module not loaded yet loads the whole package.
"""

import importlib
import sys

from .io_utils import TOOL_NAME, TOOL_VERSION

__version__ = TOOL_VERSION

#: Public names by defining submodule, in import order.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "numerics": (),
    "symbolic": (
        "CapExceededError", "CellSystem", "ENUMERATION_CAP", "depth_map",
    ),
    "weights": (
        "ConstantCellWeight", "CylinderWeight", "MatrixCocycleWeight", "ShiftedWeight",
        "SkewProductWeight", "make_constant_cell", "make_matrix_cocycle", "normalize_to_gibbs",
        "row_sum_log_any",
    ),
    "transfer": (),
    "pressure": (
        "Extrapolation", "PressureCurve", "closed_form_T", "closed_form_beta",
        "column_log_sums", "extrapolate_pressure", "finite_T", "finite_beta", "finite_pressure",
        "finite_values", "log_total_mass", "pressure_curves",
    ),
    "spectra": (
        "Spectrum", "birkhoff_spectrum_carpet", "legendre", "legendre_involution_check",
        "lq_spectrum_empirical", "mcmullen_dimension",
    ),
    "gibbs": (
        "AuxiliaryWeight", "McEstimate", "VARIANT_PSI_Q", "VARIANT_PSI_TILDE_Q", "ball_mass",
        "birkhoff_averages", "local_dimension_mc", "make_auxiliary", "sample_path",
        "sample_paths", "sampled_log_masses",
    ),
    "carpet": (
        "CarpetRender", "P3Report", "box_count_tau", "check_P1", "check_P2", "p3_scan",
        "render_measure", "write_grid_csv", "write_pgm16",
    ),
    "reference": (
        "DEFAULT_DEPTH_SCHEDULE", "default_config", "default_q_grid", "random_depth2_weight",
        "reference_system", "reference_weight", "zero_potential_weight",
    ),
    "config": ("ConfigError", "ExperimentConfig", "config_sha256", "load_config", "parse_config"),
    "verify": ("CriterionResult", "run_all"),
}

__all__ = sorted(["TOOL_NAME", "TOOL_VERSION", *(n for ns in _EXPORTS.values() for n in ns)])
_SOURCE = {name: module_name for module_name, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _EXPORTS and name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module_name in _EXPORTS:
        importlib.import_module(f"{__name__}.{module_name}")
    if name in _EXPORTS:
        # From sys.modules: during a circular import the submodule is not
        # yet bound on the package.
        return sys.modules[f"{__name__}.{name}"]
    value = getattr(sys.modules[f"{__name__}.{_SOURCE[name]}"], name)
    globals()[name] = value
    return value
