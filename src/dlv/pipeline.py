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

:func:`streamed_report` is the one builder of a ``verification-report``,
which verifies its instances a group at a time while it is written, so a
failure comes after the part of the output before it is out.
:func:`verify` is its document, drained.
"""

from __future__ import annotations

from collections import Counter

from .constructions import Tower, build_tower, check_odd_n, pullback
from .errors import InvalidParameter
from .lattice import Value, check_type, exact_int
from .linsys import (
    blowup_section_transfer,
    certify_not_effective,
    cover_section_split,
    fixed_part_forcing,
    h0_unique_member,
)
# perfbench/tracing.py binds pipeline.canonical_json
from .schema import OneShotList, canonical_json, checked, document  # noqa: F401

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


class VerificationReport(Value):
    """The report of one n; ``instances`` are instance documents, as
    :func:`verify_instance` returns them."""

    __slots__ = _fields = ("n", "m_max", "instances", "summary")

    def __init__(self, n: int, m_max: int, instances: tuple[dict, ...], summary: str):
        self._set_fields(n, m_max, instances, summary)


def verify_instance(n: int, m: int, tower: Tower | None = None) -> dict:
    """Run the five stages of the certificate chain for one (n, m) and
    return the instance document that a ``verification-report`` lists.

    Each stage applies its rule, appends the rule application to the
    document's ``certificate_chain`` and checks the computed values against
    their closed forms.

    ``tower`` may be supplied to reuse the constructed models across an m
    sweep; it must have been built for the same n.
    """
    exact_int(m, "m", 1)
    tower = build_tower(n) if tower is None else tower
    check_type(tower, Tower, "verify_instance")
    if tower.n != check_odd_n(n):
        raise InvalidParameter(f"tower was built for n={tower.n}, not n={n}")

    classes = tower.classes
    m_member = m * classes["A"]
    m_one_dim = m * classes["L"]
    orders = [2 * m] * 3
    chain: list[dict] = []
    problems: list[str] = []

    # Stage 1: transfer m*D from the top surface down to the cover.
    down, top_orders, record = blowup_section_transfer(
        tower.cover_blowup_map, m * classes["D"], TOP_TRANSFER_CITATION
    )
    chain.append(record)
    if top_orders != orders:
        problems.append(f"top-surface vanishing orders {top_orders} != {orders}")
    if down != pullback(tower.cover_map, m_member):
        problems.append("top-surface transfer does not land on the pulled-back multiple")

    # Stage 2: split the pulled-back sections over the cover.
    first, second, record = cover_section_split(tower.cover_map, m_member)
    chain.append(record)
    if first != m_member or second != m_member - classes["R"]:
        problems.append("cover split summands are not (M, M - R)")

    # Stage 3: the second summand is not effective below the threshold.
    certificate_value, record = certify_not_effective(tower.base, second, "Gamma_n")
    chain.append(record)
    expected_certificate = 4 * (m - 1) - n * n
    if certificate_value != expected_certificate:
        problems.append(
            f"witness pairing {certificate_value} != 4(m-1) - n^2 = {expected_certificate}"
        )

    beyond = certificate_value >= 0
    if not beyond:
        # Stage 4: transfer the surviving summand down to the blown-up base.
        down, base_orders, record = blowup_section_transfer(
            tower.base_blowup_map, m_one_dim, BASE_TRANSFER_CITATION
        )
        chain.append(record)
        if down != m_member or base_orders != orders:
            problems.append("blown-up-base transfer does not match the member multiple")

    # Stage 5: forcing pins the unique member.  It holds on the blown-up
    # base for every m >= 1; beyond the threshold (stage 3 refused) it is a
    # spot check, its records carry the scope Y'-only, and no top-surface h0
    # is reported.
    trace = fixed_part_forcing(tower.base_blowup, m_one_dim)
    h0, records = h0_unique_member(trace)
    if beyond:
        for app in records:
            app["values"]["scope"] = "Y'-only"
    chain += records
    if h0 != 1:
        problems.append("blown-up-base forcing did not conclude a unique member")
    elif trace.conclusion.as_dict() != {"F'": m, "Gamma_n'": m}:
        problems.append(f"unexpected decomposition {trace.conclusion.as_dict()}")
    status, h0 = (BEYOND_THRESHOLD, "unknown") if beyond else (VERIFIED, h0)

    a_sq = tower.base.self_int(classes["A"])
    d_sq = tower.cover_blowup.self_int(classes["D"])
    if a_sq != 8:
        problems.append(f"member self-intersection {a_sq} != 8")
    if d_sq != 4:
        problems.append(f"headline self-intersection {d_sq} != 4")

    if problems:
        chain.append(
            {
                "rule": "internal-check-failed",
                "citation": "computed values contradict the closed forms; implementation bug",
                "values": {"details": problems},
            }
        )
        status, h0 = FAILED, "unknown"

    return {
        "m": m,
        "a_n_squared": a_sq,
        "d_n_squared": d_sq,
        "certificate_value": certificate_value,
        "h0": h0,
        "status": status,
        "certificate_chain": chain,
    }


def instance_range(n: int, m_max: int | None = None) -> range:
    """The multiples m = 1 .. m_max + 1 of a report of n, once ``n`` and
    ``m_max`` are checked.

    ``m_max`` defaults to the certificate threshold (n^2 + 3) / 4; the
    extra boundary instance demonstrates the sharpness of the certificate
    rather than silently stopping.
    """
    threshold = m_threshold(n)
    if m_max is None:
        m_max = threshold
    else:
        exact_int(m_max, "m_max", 1)
    return range(1, m_max + 2)


def report_summary(n: int, statuses: Counter, m: int | None = None) -> str:
    """The summary of a report of n whose instances have ``statuses``, a
    count by status: of the m range of :func:`instance_range`, or of the
    single instance ``m``."""
    if m is not None:
        (status,) = statuses
        return f"single instance n={n}, m={m}: {status}"
    threshold = m_threshold(n)
    summary = (
        f"n={n}: the top-surface class has self-intersection 4 > 0, and "
        f"h0 = 1 is certified for {statuses[VERIFIED]} multiple(s) "
        f"(certified range 1 <= m <= {threshold}); "
        f"{statuses[BEYOND_THRESHOLD]} boundary instance(s) lie beyond the certificate range"
    )
    if statuses[FAILED]:
        return summary + f"; {statuses[FAILED]} instance(s) FAILED internal checks"
    return summary + (
        f". A class of positive self-intersection whose multiples stay "
        f"one-dimensional through m = {threshold} rules out every uniform "
        f"mobility bound m_1 <= {threshold} for this surface."
    )


# A report's instances are verified this many at a time, then
# written and dropped.  In 10-pair A/Bs of a cold `sweep 3..21` on a 2-core
# host, one at a time lost every pair on wall time (+10%), groups of 8 to 128
# tied with the whole report, and 16 kept the peak RSS within 0.1 MB of one
# at a time.
_GROUP = 16


def streamed_report(
    n: int, m_max: int | None = None, m: int | None = None, sweep_index: int | None = None
) -> tuple[dict, Counter]:
    """The ``verification-report`` document of n, over the m range of
    :func:`instance_range` or the single instance ``m``, and the count of
    its instances by status, complete once its ``instances`` are read.

    Each group of ``_GROUP`` instances is verified and checked (by
    :func:`~dlv.schema.checked`) when the first of them is read, and dropped
    before the next is verified.  After the last, the ``summary`` is set and
    the other fields, which sort after ``instances``, are checked.
    ``sweep_index`` k makes it report k of a sweep."""
    if m is None:
        ms = instance_range(n, m_max)
        m_max = len(ms) - 1
    else:
        m_max = exact_int(m, "m", 1)
        ms = range(m, m + 1)
    report = document("verification-report", n=n, m_max=m_max, instances=None, summary=None)
    statuses = Counter()
    tower = build_tower(n)

    def instances():
        for start in range(0, len(ms), _GROUP):
            group = [verify_instance(n, each, tower) for each in ms[start : start + _GROUP]]
            for j, instance in enumerate(group, start):
                statuses[instance["status"]] += 1
                checked(instance, sweep_index, j)
            del instance  # the group's last, which would outlive the group
            yield from group
            del group  # before the next group is verified
        report["summary"] = report_summary(n, statuses, m)
        checked({**report, "instances": []}, sweep_index)

    report["instances"] = OneShotList(instances())
    return report, statuses


def verify(n: int, m_max: int | None = None) -> VerificationReport:
    """The document of :func:`streamed_report` of n, drained into a
    :class:`VerificationReport`."""
    doc, _ = streamed_report(n, m_max)
    instances = tuple([*doc["instances"]])  # sets the summary
    return VerificationReport(n, doc["m_max"], instances, doc["summary"])


# -- serialization -----------------------------------------------------------


def report_to_dict(report: VerificationReport) -> dict:
    check_type(report, VerificationReport, "report_to_dict")
    return document(
        "verification-report",
        n=report.n,
        m_max=report.m_max,
        instances=list(report.instances),
        summary=report.summary,
    )


def sweep_to_dict(reports) -> dict:
    return document("sweep-report", reports=[report_to_dict(r) for r in reports])


def render_report_text(doc: dict) -> str:
    """Human-readable table of a ``verification-report`` document, then
    why each ``Failed`` instance failed: its internal-check details.

    It reads the instances once, in turn, keeping only each row's cells
    and any details, and reads the summary only after them, so it renders
    a streamed report too."""
    if not isinstance(doc, dict) or doc.get("schema") != "verification-report":
        raise InvalidParameter("render_report_text needs a verification-report document")
    keys = ("m", "a_n_squared", "d_n_squared", "certificate_value", "h0", "status")
    rows = [("m", "A^2", "D^2", "certificate", "h0", "status")]
    details = []
    for r in doc["instances"]:
        rows.append(tuple([str(r[key]) for key in keys]))
        details += (
            f"  m={r['m']} {FAILED}: {why}"
            for app in r["certificate_chain"]
            if app["rule"] == "internal-check-failed"
            for why in app["values"]["details"]
        )
        del r  # before a streamed report verifies its next instances
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        f"verification report  n={doc['n']}  certified threshold m={m_threshold(doc['n'])}  "
        f"(instances m={rows[1][0]}..{rows[-1][0]})  "
        f"tool {doc['tool_version']}"
    ]
    for row in rows:
        lines.append(
            "  "
            + "  ".join(
                cell.rjust(widths[i]) if i < 4 else cell.ljust(widths[i])
                for i, cell in enumerate(row)
            ).rstrip()
        )
    lines += details
    lines.append(f"summary: {doc['summary']}")
    return "\n".join(lines) + "\n"
