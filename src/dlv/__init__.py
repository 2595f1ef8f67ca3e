"""Exact integer intersection theory on declared surface lattices.

Divisor-class arithmetic with a symmetric integer pairing, blow-ups and
double covers, citation-carrying effectivity certificates, a replay
verifier with deterministic JSON reports, and independent brute-force
oracles.  Everything is exact (arbitrary-precision integers) and every
value object is immutable.

The oracle suites (``dlv.oracle``) and the expression grammar
(``dlv.expr``, ``parse_expr``) are imported from their modules, so a
process that runs neither does not load them.
"""

__version__ = "0.1.0"

from .errors import (
    DivisorLatticeError,
    ExprError,
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
    streamed_report,
    sweep_to_dict,
    verify,
    verify_instance,
)
from .schema import canonical_json
