"""Quantitative machinery for immersions with local Lipschitz graph
representations: Grassmannian geometry, Riemannian centers of mass,
(r, lambda) verification, delta-nets, averaged normal fields, tubular
neighborhoods, and projection-built correspondences."""

from .errors import LipimmError
from .grassmann import (
    GrassmannTangent,
    Subspace,
    exp_map,
    geodesic_distance,
    log_map,
    orthonormalize,
)
from .karcher import (
    DiracMixture,
    MeanReport,
    energy,
    energy_gradient,
    karcher_mean,
    stability_constant,
    verify_stability,
)
from .immersion import (
    EuclideanIsometry,
    GraphPatch,
    GraphSystem,
    SampledImmersion,
    check_r_lambda,
    check_r_lambda_function,
    delta,
    extract_graph_patch,
    graph_system_distance,
    q_component,
    q_components,
)
from .nets import DeltaNet, build_net, verify_net_bounds
from .normals import (
    ConstantsBundle,
    CutoffSpec,
    DirectionField,
    NormalMeasureField,
    angle_bound_check,
    constants,
    direction_field,
    field_lipschitz_check,
    make_cutoff,
    n_lipschitz_check,
)
from .tubular import (
    TubeParams,
    inclusion_probe,
    injectivity_probe,
    separation_check,
    tube_params,
)
from .correspond import (
    Correspondence,
    build_correspondence,
    convergence_harness,
    reparametrized_lipschitz,
    verify_bijectivity,
)
from .shapes import immersion_from_points, load_manifest, make_shape

__version__ = "0.1.0"
