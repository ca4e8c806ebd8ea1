"""Uniqueness sets for phase retrieval in Fock space.

Construction of perturbed-lattice point configurations, geometric
certificates (closeness, median angles, separation, density), entire
function machinery on the Gaussian-weighted space (reproducing kernel,
Wronskian products, sigma-type interpolation), the Gaussian windowed
transform bridge, and phaseless comparison tools.
"""

__version__ = "0.1.0"

from .lattice import Lattice, LatticeIndex, square_lattice, window_arrays
from .pointset import (
    AngleReport,
    ClosenessReport,
    DensityReport,
    IndexedPointSet,
    PointEntry,
    SeparationReport,
    angle_condition,
    certify_f_closeness,
    density_estimate,
    median_angle,
    median_angles,
    relative_separation_bound,
    sample_points,
    separation,
    triple_vertices,
)
from .sampler import (
    GeneratorConfig,
    McReport,
    density_opt_even,
    density_opt_real,
    deterministic_triple,
    even_single,
    mc_angle_bound,
    mc_mirror_angle_bound,
    random_triple,
    real_pair,
    reflection_closure,
    three_lines,
)
from .fock import (
    FockPoly,
    TwoVarFockPoly,
    basis_scales,
    close_pair_bound_check,
    derivative_growth_check,
    dist,
    extension_norm_bound_check,
    fock_gram,
    growth_check,
    polyanalytic_residual,
    quad_norm,
    two_var_extension,
    wronskian,
)
from .special import (
    CriticalQ,
    GGammaEvaluator,
    SigmaEvaluator,
    fock_annulus_increments,
    lagrange_interpolate,
)
from .gabor import (
    HardyReport,
    HermiteSignal,
    bargmann,
    bargmann_grid,
    fock_inner_quad,
    gabor_transform,
    hardy_check,
    symmetry_class,
)
from .phaseless import (
    LiftedReport,
    PhaseDecision,
    RolleResult,
    combine_directionals,
    directional_derivative,
    lifted_injectivity,
    phase_relation_decide,
    rolle_point,
    uniqueness_product,
    zero_perturbation_bound_check,
)
from .render import render_points_svg, render_svg
from .suites import CheckResult, run_suite
