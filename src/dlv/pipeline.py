"""Replay verifier: runs the certificate chain for each (n, m) and
assembles deterministic reports.

For one odd n the verified tower is built once, and each multiple m walks
the same five cited stages, in order:

1. blow-up section transfer on the top surface (the class is the strict
   transform of a pulled-back member, so sections transfer downstairs with
   imposed vanishing orders 2m at the three nodes);
2. cover section split (sections of the pulled-back bundle split into the
   base summands M and M - R);
3. non-effectivity of the second summand on the abelian base, certified by
   the nef witness pairing 4(m-1) - n^2;
4. blow-up section transfer down to the blown-up base (vanishing orders 2m
   at the three transverse points identify the space with sections of the
   strict-transform multiple);
5. fixed-component forcing of that multiple, concluding a unique member
   and hence a one-dimensional space of sections.

Every instance cross-checks its computed values against the closed forms;
a mismatch is an internal contradiction and yields status ``Failed``
(reserved for implementation bugs, never for honest boundary cases).  The
boundary instance m = threshold + 1 is included deliberately: its witness
pairing is non-negative, the certificate correctly refuses, and the status
is ``BeyondThreshold``.  Reports with identical inputs are byte-identical
as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import __version__
from .constructions import MorphismMap, Tower, build_tower, check_odd_n, pullback
from .errors import InvalidParameter, NotCertified
from .lattice import DivisorClass, exact_int
from .linsys import (
    RuleApplication,
    SectionCountResult,
    blowup_section_transfer,
    certify_not_effective,
    cover_section_split,
    fixed_part_forcing,
    h0_unique_member,
)
from .schema import canonical_json, document  # noqa: F401 (canonical_json is re-exported)

VERIFIED = "Verified"
BEYOND_THRESHOLD = "BeyondThreshold"
FAILED = "Failed"

# The blow-up section transfer is applied twice (stages 1 and 4); each
# application cites the points it runs through.
TOP_TRANSFER_CITATION = (
    "the class is the pullback of the nodal member's multiple minus "
    "2m times each exceptional class; its sections are sections "
    "downstairs vanishing to order 2m at the three nodes"
)
BASE_TRANSFER_CITATION = (
    "sections of the strict-transform multiple on the blown-up "
    "base are sections of the member's multiple vanishing to "
    "order 2m at the three transverse points"
)


def m_threshold(n: int) -> int:
    """Largest integer m with 4(m-1) - n^2 < 0, i.e. (n^2 + 3) / 4.

    Exact for odd n because n^2 = 1 (mod 4); even n is rejected rather
    than approximated.
    """
    check_odd_n(n)
    return (n * n + 3) // 4


@dataclass(frozen=True)
class InstanceResult:
    """Outcome of the certificate chain for one (n, m)."""

    n: int
    m: int
    a_n_squared: int
    d_n_squared: int
    certificate_value: int
    h0: SectionCountResult
    status: str


@dataclass(frozen=True)
class VerificationReport:
    n: int
    m_max: int
    instances: tuple[InstanceResult, ...]
    summary: str


def _transfer(
    chain: list[RuleApplication], morphism: MorphismMap, d: DivisorClass, citation: str
) -> tuple[DivisorClass, list[int]]:
    """Apply the blow-up section transfer to ``d`` and record it in ``chain``."""
    down, orders = blowup_section_transfer(morphism, d)
    chain.append(
        RuleApplication(
            rule="blowup-section-transfer",
            citation=citation,
            values={
                "surface": morphism.source_model,
                "class": list(d.coeffs),
                "downstairs_class": list(down.coeffs),
                "vanishing_orders": list(orders),
            },
        )
    )
    return down, orders


def verify_instance(n: int, m: int, tower: Tower | None = None) -> InstanceResult:
    """Run the five stages of the certificate chain for one (n, m).

    Each stage applies its rule, appends the rule application to the chain
    and checks the computed values against their closed forms.

    ``tower`` may be supplied to reuse the constructed models across an m
    sweep; it must have been built for the same n.
    """
    exact_int(m, "m", 1)
    if tower is None:
        tower = build_tower(n)
    elif tower.n != n:
        raise InvalidParameter(f"tower was built for n={tower.n}, not n={n}")

    classes = tower.classes
    m_member = m * classes["A"]
    m_one_dim = m * classes["L"]
    orders = [2 * m] * 3
    chain: list[RuleApplication] = []
    problems: list[str] = []

    # Stage 1: transfer m*D from the top surface down to the cover.
    down, top_orders = _transfer(
        chain, tower.cover_blowup_map, m * classes["D"], TOP_TRANSFER_CITATION
    )
    if top_orders != orders:
        problems.append(f"top-surface vanishing orders {top_orders} != {orders}")
    if down != pullback(tower.cover_map, m_member):
        problems.append("top-surface transfer does not land on the pulled-back multiple")

    # Stage 2: split the pulled-back sections over the cover.
    first, second = cover_section_split(tower.cover_map, m_member)
    chain.append(
        RuleApplication(
            rule="cover-section-split",
            citation=(
                "for the degree-2 cover branched in |2R|, sections of the "
                "pullback of M split as sections of M plus sections of M - R"
            ),
            values={
                "M": list(first.coeffs),
                "M_minus_R": list(second.coeffs),
            },
        )
    )
    if first != m_member or second != m_member - classes["R"]:
        problems.append("cover split summands are not (M, M - R)")

    # Stage 3: the second summand is not effective below the threshold.
    try:
        certificate = certify_not_effective(tower.base, second, classes["G_n"])
    except NotCertified as refusal:
        certificate_value = refusal.pairing_value
        chain.append(
            RuleApplication(
                rule="noneffectivity-witness-failed",
                citation=(
                    "the nef witness pairs non-negatively with M - R, so the "
                    "certificate refuses; beyond this point no section-count "
                    "claim is made for the top surface"
                ),
                values={
                    "witness": "Gamma_n",
                    "pairing": certificate_value,
                },
            )
        )
    else:
        certificate_value = certificate.pairing_value
        chain.append(certificate.to_rule_application())
    expected_certificate = 4 * (m - 1) - n * n
    if certificate_value != expected_certificate:
        problems.append(
            f"witness pairing {certificate_value} != 4(m-1) - n^2 = {expected_certificate}"
        )

    beyond = certificate_value >= 0
    if not beyond:
        # Stage 4: transfer the surviving summand down to the blown-up base.
        down, base_orders = _transfer(
            chain, tower.base_blowup_map, m_one_dim, BASE_TRANSFER_CITATION
        )
        if down != m_member or base_orders != orders:
            problems.append("blown-up-base transfer does not match the member multiple")

    # Stage 5: forcing pins the unique member.  It holds on the blown-up
    # base for every m >= 1; beyond the threshold (stage 3 refused) it is a
    # spot check, its records carry the scope Y'-only, and no top-surface h0
    # is reported.
    trace = fixed_part_forcing(tower.base_blowup, m_one_dim)
    section_count = h0_unique_member(trace)
    for app in section_count.certificate_chain:
        chain.append(replace(app, values={**app.values, "scope": "Y'-only"}) if beyond else app)
    if section_count.value != 1:
        problems.append("blown-up-base forcing did not conclude a unique member")
    elif trace.conclusion.as_dict() != {"F'": m, "Gamma_n'": m}:
        problems.append(f"unexpected decomposition {trace.conclusion.as_dict()}")
    status, h0 = (BEYOND_THRESHOLD, None) if beyond else (VERIFIED, section_count.value)

    a_sq = tower.base.self_int(classes["A"])
    d_sq = tower.cover_blowup.self_int(classes["D"])
    if a_sq != 8:
        problems.append(f"member self-intersection {a_sq} != 8")
    if d_sq != 4:
        problems.append(f"headline self-intersection {d_sq} != 4")

    if problems:
        chain.append(
            RuleApplication(
                rule="internal-check-failed",
                citation="computed values contradict the closed forms; implementation bug",
                values={"details": problems},
            )
        )
        status, h0 = FAILED, None

    return InstanceResult(
        n=n,
        m=m,
        a_n_squared=a_sq,
        d_n_squared=d_sq,
        certificate_value=certificate_value,
        h0=SectionCountResult(value=h0, certificate_chain=chain),
        status=status,
    )


def verify(n: int, m_max: int | None = None) -> VerificationReport:
    """Verify one odd n for m = 1 .. m_max + 1.

    ``m_max`` defaults to the certificate threshold (n^2 + 3) / 4; the
    extra boundary instance demonstrates the sharpness of the certificate
    rather than silently stopping.
    """
    threshold = m_threshold(n)
    if m_max is None:
        m_max = threshold
    else:
        exact_int(m_max, "m_max", 1)
    tower = build_tower(n)
    instances = tuple(verify_instance(n, m, tower=tower) for m in range(1, m_max + 2))

    verified = sum(1 for r in instances if r.status == VERIFIED)
    beyond = sum(1 for r in instances if r.status == BEYOND_THRESHOLD)
    failed = len(instances) - verified - beyond
    summary = (
        f"n={n}: the top-surface class has self-intersection 4 > 0, and "
        f"h0 = 1 is certified for {verified} multiple(s) "
        f"(certified range 1 <= m <= {threshold}); "
        f"{beyond} boundary instance(s) lie beyond the certificate range"
    )
    if failed:
        summary += f"; {failed} instance(s) FAILED internal checks"
    else:
        summary += (
            f". A class of positive self-intersection whose multiples stay "
            f"one-dimensional through m = {threshold} rules out every uniform "
            f"mobility bound m_1 <= {threshold} for this surface."
        )
    return VerificationReport(
        n=n, m_max=m_max, instances=instances, summary=summary
    )


# -- serialization -----------------------------------------------------------


def instance_to_dict(result: InstanceResult) -> dict:
    return {
        "m": result.m,
        "a_n_squared": result.a_n_squared,
        "d_n_squared": result.d_n_squared,
        "certificate_value": result.certificate_value,
        "h0": result.h0.value if result.h0.is_known else "unknown",
        "status": result.status,
        "certificate_chain": [app.to_dict() for app in result.h0.certificate_chain],
    }


def report_to_dict(report: VerificationReport) -> dict:
    return document(
        "verification-report",
        n=report.n,
        m_max=report.m_max,
        instances=[instance_to_dict(r) for r in report.instances],
        summary=report.summary,
    )


def sweep_to_dict(reports) -> dict:
    return document("sweep-report", reports=[report_to_dict(r) for r in reports])


def render_report_text(report: VerificationReport) -> str:
    """Human-readable table carrying the same numbers as the JSON, then
    why each ``Failed`` instance failed: its internal-check details."""
    header = (
        f"verification report  n={report.n}  certified threshold m={m_threshold(report.n)}  "
        f"(instances m={report.instances[0].m}..{report.instances[-1].m})  "
        f"tool {__version__}"
    )
    rows = [("m", "A^2", "D^2", "certificate", "h0", "status")]
    for r in report.instances:
        rows.append(
            (
                str(r.m),
                str(r.a_n_squared),
                str(r.d_n_squared),
                str(r.certificate_value),
                str(r.h0.value) if r.h0.is_known else "unknown",
                r.status,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [header]
    for row in rows:
        lines.append(
            "  "
            + "  ".join(
                cell.rjust(widths[i]) if i < 4 else cell.ljust(widths[i])
                for i, cell in enumerate(row)
            ).rstrip()
        )
    for r in report.instances:
        for app in r.h0.certificate_chain:
            if app.rule == "internal-check-failed":
                lines.extend(f"  m={r.m} {FAILED}: {detail}" for detail in app.values["details"])
    lines.append(f"summary: {report.summary}")
    return "\n".join(lines) + "\n"


def render_sweep_text(reports) -> str:
    return "\n".join(render_report_text(r) for r in reports)
