"""Exact certificates for singular foliations, metrics, and their cotangent ideals."""

from .errors import (
    AmbiguousQuotientError,
    ChartMismatchError,
    DigitLimitError,
    FlowDivergedError,
    FoliatkError,
    InternalCheckError,
    MetricError,
    ParseError,
    PreconditionError,
    SceneError,
    VariableSetError,
)
from .poly import BLOCK, GREVLEX, LEX, MonomialOrder, Polynomial, VariableSet, format_polynomial
from .ratfunc import RationalFunction
from .groebner import (
    Certificate,
    CheckResult,
    GroebnerBasis,
    ModuleElement,
    buchberger,
    ideal_membership,
    module_groebner,
    module_membership,
    normal_form_with_cofactors,
    syzygy_basis,
)
from .geometry import (
    MetricData,
    OneForm,
    RationalVectorField,
    SymTensor2,
    VectorField,
    canonical_poisson,
    cotangent_lift,
    hamiltonian,
    lie_bracket,
    lie_derivative,
    musical_flat,
    musical_sharp,
    sym_tensor_lift,
)
from .foliation import (
    FoliationModule,
    PointReport,
    fiber_dim,
    involutivity_check,
    isotropy_algebra,
    lift_ideal,
    module_equal,
    tangent_dim,
)
from .ipoisson import (
    IdealPresentation,
    MorphismReport,
    PolyMap,
    SRFCertificate,
    SRFRefutation,
    killing_connection,
    morphism_defect_check,
    normalizer_check,
    poisson_closure_check,
    reduced_bracket,
    srf_check,
)
from .submersion import (
    CotangentMap,
    SubmersionData,
    check_riemannian,
    compose,
    compose_cotangent_maps,
    horizontal_lift,
    integrability_check,
    metric_defect,
    morita_span_check,
    phi_pi,
    poisson_defect,
    pullback_foliation,
    pullback_function,
)
from .dynamics import (
    FlowState,
    MonitorReport,
    geodesic_orthogonality_check,
    hamiltonian_rhs,
    integrate_flow,
    monitor_ideal_preservation,
)
from .expressions import parse_expression

__version__ = "0.1.0"
