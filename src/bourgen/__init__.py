"""bourgen: one-parameter families of isometric invariant surfaces in
Riemannian 3-manifolds, from a generatrix function and an ambient metric
in symmetry-adapted coordinates."""

from .bour import (
    BourParams,
    ProfileCurve,
    SurfaceMember,
    assemble_member,
    constant_volume_member,
    feasible_s_range,
    generate_member,
    integrate_profile,
    ode_rhs,
    vertical_quadrature,
)
from .chart import (
    AdaptedChart3,
    InvariantFunction,
    chart_from_config,
    invariant_pairing,
    quotient_metric,
    rescale_vertical,
)
from .expressions import Expression, parse_expression
from .natural import (
    GeneratrixMetric,
    LiftedCurve,
    NaturalParameters,
    ReparametrizedSurface,
    pullback_coefficients,
    to_natural,
)
from .quotient import (
    CauchyCurve,
    QuotientFrame,
    build_frame,
    line_segment,
    newton_invert,
    solve_orthogonal_invariant,
)
from .spaces import (
    ClosedFormFamily,
    SpaceSpec,
    bcv_closed_form,
    builtin_frame,
    make_chart,
    mesh_xyz,
    r3_closed_form,
    to_ambient_coords,
)
from .verify import (
    CrossCheckReport,
    FormSample,
    IsometryReport,
    cross_check,
    fd_first_form,
    isometry_report,
)

__version__ = "0.1.0"
