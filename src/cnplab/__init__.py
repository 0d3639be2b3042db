"""Numerical laboratory for unitarily invariant kernels on the unit ball.

Computes kernel coefficient algebra, classifies kernels as complete
Nevanlinna-Pick or not, tests commuting matrix tuples for contractivity and
purity against a kernel, constructs the dilation isometry and the explicit
characteristic function, and verifies the operator identities these objects
satisfy, including the generalized Bergman counterexample.
"""

from .coeffs import (
    CnpClassification,
    CoeffTable,
    KernelSpec,
    KernelValue,
    RadiusEstimate,
    as_points,
    bergman,
    build_table,
    custom_kernel,
    dirichlet_t,
    drury_arveson,
    estimate_radius,
    graded_indices,
    is_cnp,
    kernel_eval,
    multi_coeff,
    multinomial,
    szego,
)
from .errors import (
    AmbiguousRankError,
    CnpLabError,
    CommutationError,
    DegenerateDilationError,
    DomainError,
    InsufficientCacheError,
    InvalidKernelError,
    NonConvergedError,
    NotCnpError,
    PrerequisiteError,
)
from .tuples import (
    ContractionVerdict,
    DefectData,
    OperatorTuple,
    PurityVerdict,
    ShiftNormBound,
    TruncatedShifts,
    TruncationParams,
    defect,
    is_contraction,
    is_pure,
    shift_matrices,
    shift_norm_sq,
)
from .model import (
    AssociatedTuple,
    CounterexamplePoint,
    DilationMap,
    ExistenceReport,
    FactorabilityReport,
    admits_charfn,
    associated_tuple,
    bergman_counterexample,
    build_dilation,
    check_factorability,
    check_intertwining,
    cnp_zero_tuple_probe,
)
from .charfn import (
    CalculusResult,
    CharFnEval,
    ModelReport,
    MultiplierReport,
    TupleLift,
    ball_points,
    build_lift,
    charfn_eval,
    eval_to_dict,
    kernel_calculus,
    verify_defect_identity,
    verify_model,
    verify_multiplier,
)

__version__ = "0.1.0"
