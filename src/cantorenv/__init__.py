"""Exact symbolic engine for partial integer actions on binary Cantor space."""

from .action import (
    AxiomsReport,
    ZPartialAction,
    axioms_check,
    generated_family,
    germ_index,
    kernel_tag,
    pullback,
    transport_index,
)
from .algebra import (
    GroupoidFunction,
    KernelElement,
    adjoint,
    col_part,
    convolve,
    from_kernel,
    kernel_adjoint,
    kernel_multiply,
    norm_squared,
    row_part,
    to_kernel,
)
from .cantor import EMPTY, FULL, MAX, MIN, ClopenSet, Point
from .cells import CellPartition, adapted_depth, cell_partition
from .envelope import (
    GermPair,
    HausdorffCertificate,
    NonSeparablePair,
    etale_probe,
    groupoid_probe,
    hausdorff_decide,
    nonseparable_pair,
    related,
)
from .errors import (
    BaseNotInDomain,
    CapExceeded,
    DepthTooSmall,
    EngineError,
    LevelRequired,
    NotInDomain,
    NotStabilized,
    NoWitness,
    ParseError,
    SupportViolation,
)
from .filtration import (
    BratteliDiagram,
    BratteliLevel,
    Exhaustion,
    bratteli_build,
    default_schedule,
    diagram_to_dot,
    diagram_to_json,
    export,
    inclusion_probe,
    inclusion_witness,
    truncated_relation,
)
from .functions import PiecewiseConstant, Scalar, compose_with_map, indicator
from .prefix_map import IDENTITY, ODOMETER, GeneratedMap, PrefixMap, compose
from .sampling import Sampler
from .verify import VerifyReport, equivariance_sign, isomorphism_suite

__version__ = "0.1.0"
