"""Exact integer intersection theory on declared surface lattices.

Divisor-class arithmetic with a symmetric integer pairing, blow-ups and
double covers, citation-carrying effectivity certificates, a replay
verifier with deterministic JSON reports, and independent brute-force
oracles.  Everything is exact (arbitrary-precision integers) and every
value object is immutable.
"""

__version__ = "0.1.0"

from .errors import (
    DivisorLatticeError,
    InvalidModel,
    InvalidParameter,
    MismatchedModel,
    SchemaViolation,
)
from .lattice import (
    DivisorClass,
    RegisteredCurve,
    SurfaceModel,
    format_class,
)
from .constructions import (
    MorphismMap,
    PointSpec,
    Tower,
    blow_up,
    build_abelian_product,
    build_tower,
    double_cover,
    pullback,
    strict_transform,
)
from .linsys import (
    ForcingRun,
    ForcingStep,
    ForcingTrace,
    Inconclusive,
    UniqueMember,
    blowup_section_transfer,
    certify_not_effective,
    cover_section_split,
    fixed_part_forcing,
    h0_unique_member,
)
from .pipeline import (
    BEYOND_THRESHOLD,
    FAILED,
    VERIFIED,
    VerificationReport,
    m_threshold,
    render_report_text,
    report_to_dict,
    sweep_to_dict,
    verify,
    verify_instance,
)
from .oracle import (
    OracleReport,
    bilinearity_suite,
    enumerate_decompositions,
    enumeration_check,
    forcing_order_check,
    identity_suite,
    oracle_report_to_dict,
)
from .schema import canonical_json
from .expr import ExprError, parse_expr
