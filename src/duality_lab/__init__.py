"""Multislit interference with partially coherent light.

Synthesizes far-field n-slit patterns from per-slit intensities and a
normalized mutual-coherence matrix, extracts visibilities from the sampled
patterns, computes path-distinguishability measures, and checks the two
duality relations analytically, operationally and against a Monte-Carlo
field-ensemble oracle.
"""

from duality_lab.analysis import (
    PeakEstimate,
    extract_michelson,
    extract_vc,
    find_primary_max,
    load_pattern_csv,
)
from duality_lab.coherence import (
    CoherenceMatrix,
    CoherenceMatrixError,
    ModeDecomposition,
    PolarizationSet,
    degree_of_coherence,
    from_modes,
    random_coherence,
    validate,
)
from duality_lab.engine import (
    InterferencePattern,
    ScreenGeometry,
    SlitArray,
    delay,
    fringe_width,
    intensity_at,
    pattern,
    write_pattern_csv,
)
from duality_lab.measures import (
    BeamDensityMatrix,
    DualityReport,
    density_from_beams,
    distinguishability,
    distinguishability_prime,
    duality_report,
    linear_identity,
    michelson,
    pythagorean_identity,
    quantum_coherence,
    visibility_analytic,
)
from duality_lab.oracle import EnsembleSpec, ensemble_spec, mc_pattern, realize_fields
from duality_lab.scenario import Scenario, ScenarioError, load_scenario

__all__ = [
    "BeamDensityMatrix",
    "CoherenceMatrix",
    "CoherenceMatrixError",
    "DualityReport",
    "EnsembleSpec",
    "InterferencePattern",
    "ModeDecomposition",
    "PeakEstimate",
    "PolarizationSet",
    "Scenario",
    "ScenarioError",
    "ScreenGeometry",
    "SlitArray",
    "degree_of_coherence",
    "delay",
    "density_from_beams",
    "distinguishability",
    "distinguishability_prime",
    "duality_report",
    "ensemble_spec",
    "extract_michelson",
    "extract_vc",
    "find_primary_max",
    "fringe_width",
    "from_modes",
    "intensity_at",
    "linear_identity",
    "load_pattern_csv",
    "load_scenario",
    "mc_pattern",
    "michelson",
    "pattern",
    "pythagorean_identity",
    "quantum_coherence",
    "random_coherence",
    "realize_fields",
    "validate",
    "visibility_analytic",
    "write_pattern_csv",
]

__version__ = "0.1.0"
