"""Effectivity certificates and section-count accounting.

Four cited rules turn lattice arithmetic into statements about spaces of
sections, each producing a value object that records exactly what was
checked:

* the abelian-surface non-effectivity rule: every effective class on an
  abelian surface is nef (such a surface carries no negative curves), so a
  strictly negative pairing with a registered irreducible curve certifies
  that the class is not effective;
* the cover section split: for a double cover whose structure sheaf pushes
  forward as O + O(-R), sections of a pulled-back bundle decompose into
  sections of the two summands on the base;
* the blow-up section transfer: sections of pullback(M) - sum k_i e_i
  upstairs are sections of M downstairs vanishing to order k_i at the
  blown-up points (pure bookkeeping, recorded for the certificate chain);
* fixed-component forcing: if a class pairs strictly negatively with a
  registered irreducible curve, every member of its linear system contains
  that curve, so the curve can be subtracted and the argument repeated.
  When the residual reaches zero the system has exactly one member.

Forcing only ever subtracts a curve the residual *visibly* contains: the
residual, written over the registered curves plus the exceptional classes,
must have a strictly positive coefficient on the curve.  When several
curves force at once the engine subtracts one with the most negative
pairing, breaking ties by registry order; this reproduces the classical
alternating subtraction on the verified tower and keeps traces
deterministic.  A conclusion of ``Inconclusive`` is an honest result, not
an error: the engine never converts "could not certify" into a claim.

All functions are pure and all results immutable; concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import MorphismMap, pullback
from .errors import (
    MismatchedModel,
    NotABlowup,
    NotACover,
    NotAStrictTransformShape,
    NotCertified,
    UnknownCurve,
    WrongSurfaceKind,
)
from .lattice import DivisorClass, SurfaceModel

NEF_RULE_CITATION = (
    "an effective class on an abelian surface is nef (no curve on it has "
    "negative self-intersection), so a strictly negative pairing with an "
    "irreducible curve of non-negative self-intersection certifies the "
    "class is not effective"
)

FORCING_CITATION = (
    "a member of the linear system pairing strictly negatively with a "
    "registered irreducible curve contains that curve as a component; "
    "subtracting it and iterating pins down every member"
)

UNIQUE_MEMBER_CITATION = (
    "a nonzero class whose only member is the forced decomposition has a "
    "one-dimensional space of sections"
)


@dataclass(frozen=True)
class RuleApplication:
    """One cited step in a certificate chain."""

    rule: str
    citation: str
    values: dict

    def to_dict(self) -> dict:
        return {"rule": self.rule, "citation": self.citation, "values": self.values}


@dataclass(frozen=True)
class NonEffectivityCertificate:
    """Witness that ``target`` is not effective on an abelian model.

    The constructor refuses a non-negative pairing value, so a certificate
    object existing is itself the proof obligation.  The remaining
    preconditions (abelian model, registered witness of non-negative
    self-intersection) are checked by :func:`certify_not_effective`, the
    only intended producer.
    """

    target: DivisorClass
    witness: DivisorClass
    witness_label: str
    pairing_value: int
    citation: str = NEF_RULE_CITATION

    def __post_init__(self):
        if self.pairing_value >= 0:
            raise NotCertified(
                f"a non-effectivity certificate requires a strictly negative "
                f"pairing, got {self.pairing_value}",
                pairing_value=self.pairing_value,
            )

    def to_rule_application(self) -> RuleApplication:
        return RuleApplication(
            rule="noneffectivity-on-abelian",
            citation=self.citation,
            values={
                "target": list(self.target.coeffs),
                "witness": self.witness_label,
                "pairing": self.pairing_value,
            },
        )


def certify_not_effective(
    model: SurfaceModel, d: DivisorClass, witness: DivisorClass
) -> NonEffectivityCertificate:
    """Certify that ``d`` is not effective, using a registered curve as
    the nef witness.

    Raises :class:`NotCertified` when the pairing is non-negative: the
    witness then proves nothing (in particular it does *not* prove
    effectivity).  The exception carries the pairing value.
    """
    if model.kind != "abelian":
        raise WrongSurfaceKind(
            f"the nef witness rule needs an abelian model, got kind {model.kind!r}"
        )
    model._check_owned(d)
    model._check_owned(witness)
    label = None
    for curve in model.curves:
        if curve.cls == witness:
            label = curve.label
            break
    if label is None:
        raise UnknownCurve("the witness must be a registered curve of the model")
    # Registered curves on an abelian model have self-intersection >= 0 by
    # the model invariant; re-check here so a certificate can cite it.
    if model.self_int(witness) < 0:
        raise WrongSurfaceKind("witness has negative self-intersection")
    value = model.pair(d, witness)
    if value >= 0:
        raise NotCertified(
            f"witness {label} pairs {value} >= 0 with the target: "
            f"no non-effectivity conclusion (and no effectivity claim either)",
            pairing_value=value,
        )
    return NonEffectivityCertificate(
        target=d, witness=witness, witness_label=label, pairing_value=value
    )


def cover_section_split(
    morphism: MorphismMap, m_cls: DivisorClass
) -> tuple[DivisorClass, DivisorClass]:
    """Split sections of the pullback of ``m_cls`` through a double cover.

    Returns the two summand classes on the base, ``(M, M - R)`` where R is
    the retained half-branch class.
    """
    if morphism.kind != "cover" or morphism.branch_half is None:
        raise NotACover("cover_section_split needs a double-cover morphism")
    if m_cls.model_id != morphism.target_model:
        raise MismatchedModel(
            f"expected a class on the base {morphism.target_model!r}, "
            f"got {m_cls.model_id!r}"
        )
    return m_cls, m_cls - morphism.branch_half


def blowup_section_transfer(
    morphism: MorphismMap, d: DivisorClass
) -> tuple[DivisorClass, list[int]]:
    """Decompose a class on a blow-up as pullback(M) - sum k_i e_i.

    Returns ``(M, [k_1, ...])``: the downstairs class and the imposed
    vanishing orders at the blown-up points.  This is bookkeeping for the
    certificate chain; the section spaces upstairs and downstairs-with-
    vanishing are identified.  Raises
    :class:`NotAStrictTransformShape` when some k_i would be negative or
    the class is not of the required shape.
    """
    if morphism.kind != "blowup":
        raise NotABlowup("blowup_section_transfer needs a blow-up morphism")
    if d.model_id != morphism.source_model:
        raise MismatchedModel(
            f"expected a class on the blow-up {morphism.source_model!r}, "
            f"got {d.model_id!r}"
        )
    exc = set(morphism.exceptional_positions)
    orders = [-d.coeffs[p] for p in morphism.exceptional_positions]
    if any(k < 0 for k in orders):
        raise NotAStrictTransformShape(
            f"exceptional coefficients {[d.coeffs[p] for p in morphism.exceptional_positions]} "
            f"include a positive entry; not pullback minus non-negative multiples"
        )
    base_coeffs = tuple(c for i, c in enumerate(d.coeffs) if i not in exc)
    if len(base_coeffs) != morphism.target_size:
        raise NotAStrictTransformShape("class does not fit the blow-up shape")
    base_cls = DivisorClass(morphism.target_model, base_coeffs)
    check = list(pullback(morphism, base_cls).coeffs)
    for p, k in zip(morphism.exceptional_positions, orders):
        check[p] -= k
    if tuple(check) != d.coeffs:
        raise NotAStrictTransformShape(
            "class is not pullback(M) minus exceptional multiples for any M"
        )
    return base_cls, orders


# -- fixed-component forcing -------------------------------------------------


@dataclass(frozen=True)
class UniqueMember:
    """The linear system has exactly one member, with this decomposition
    into registered curves (label, count), zero counts omitted."""

    decomposition: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.decomposition)


@dataclass(frozen=True)
class Inconclusive:
    """Forcing could not pin down the system; ``reason`` is one of
    ``no forcing curve``, ``outside registry cone``, ``cap``."""

    reason: str


@dataclass(frozen=True)
class ForcingStep:
    curve_label: str
    pairing_value: int
    residual_after: DivisorClass


@dataclass(frozen=True)
class ForcingTrace:
    start: DivisorClass
    steps: tuple[ForcingStep, ...]
    conclusion: UniqueMember | Inconclusive


def _solve_exact(columns: list[tuple[int, ...]], rhs: tuple[int, ...]) -> list[int] | None:
    """Solve sum x_j * columns[j] = rhs for a unique integer solution.

    Returns None when the system is unsolvable, the solution is not
    integral, or the columns are dependent (solution not unique).
    Exact Gaussian elimination over the rationals; sizes here are tiny.
    """
    n_rows = len(rhs)
    n_cols = len(columns)
    aug = [
        [Fraction(columns[j][i]) for j in range(n_cols)] + [Fraction(rhs[i])]
        for i in range(n_rows)
    ]
    pivot_of_col: list[int | None] = [None] * n_cols
    row = 0
    for col in range(n_cols):
        sel = None
        for r in range(row, n_rows):
            if aug[r][col]:
                sel = r
                break
        if sel is None:
            return None  # dependent columns: representation would not be unique
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n_rows):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivot_of_col[col] = row
        row += 1
    for r in range(row, n_rows):
        if aug[r][n_cols]:
            return None  # inconsistent
    out = []
    for col in range(n_cols):
        val = aug[pivot_of_col[col]][n_cols]
        if val.denominator != 1:
            return None  # not an integer combination
        out.append(int(val))
    return out


def _represent_over_visible_cone(
    model: SurfaceModel, d: DivisorClass
) -> dict[str, int] | None:
    """Write ``d`` over the registered curves plus exceptional classes.

    Returns the registered-curve counts of the unique exact integer
    representation, or None when no such representation exists.
    """
    columns = [curve.cls.coeffs for curve in model.curves]
    for label in model.exceptional_labels:
        columns.append(model.basis_class(label).coeffs)
    solution = _solve_exact(columns, d.coeffs)
    if solution is None:
        return None
    return {c.label: solution[i] for i, c in enumerate(model.curves)}


def fixed_part_forcing(
    model: SurfaceModel, start: DivisorClass, step_cap: int | None = None
) -> ForcingTrace:
    """Run the fixed-component induction on ``start``.

    Repeatedly subtracts a registered curve that (a) pairs strictly
    negatively with the current residual and (b) appears with strictly
    positive coefficient when the residual is written over the registered
    curves plus exceptional classes.  Among eligible curves the most
    negative pairing wins; ties fall to the earliest curve in registry
    order.  Stops with ``UniqueMember`` when the residual reaches zero,
    otherwise with an ``Inconclusive`` reason (``no forcing curve``,
    ``outside registry cone``, or ``cap``).

    ``step_cap`` defaults to 10 x (sum of the start's curve coefficients)
    + 10 as a hard backstop; each subtraction lowers that sum by exactly
    one, so a concluding run of the verified tower never nears the cap.
    """
    model._check_owned(start)
    if start.is_zero:
        return ForcingTrace(start=start, steps=(), conclusion=UniqueMember(()))

    curve_counts = _represent_over_visible_cone(model, start)
    if step_cap is None:
        measure = sum(curve_counts.values()) if curve_counts else 0
        step_cap = max(10 * measure + 10, 1)

    # Precompute gram @ curve for each registered curve: pairing against a
    # residual is then a single dot product.
    gram = model.gram
    paired_rows = []
    for curve in model.curves:
        paired_rows.append(
            tuple(
                sum(gram[i][j] * c for i, c in enumerate(curve.cls.coeffs) if c)
                for j in range(model.size)
            )
        )

    residual = list(start.coeffs)
    steps: list[ForcingStep] = []
    subtracted: dict[str, int] = {}
    conclusion: UniqueMember | Inconclusive
    while True:
        if not any(residual):
            decomposition = tuple(
                (label, subtracted[label])
                for label in model.curve_labels
                if subtracted.get(label, 0) > 0
            )
            conclusion = UniqueMember(decomposition)
            break
        best = None  # (pairing value, registry index)
        has_negative = False
        for idx, row in enumerate(paired_rows):
            value = 0
            for r, g in zip(residual, row):
                if r:
                    value += r * g
            if value < 0:
                has_negative = True
                if curve_counts is not None and curve_counts[model.curves[idx].label] > 0:
                    cand = (value, idx)
                    if best is None or cand < best:
                        best = cand
        if not has_negative:
            conclusion = Inconclusive("no forcing curve")
            break
        if best is None:
            conclusion = Inconclusive("outside registry cone")
            break
        if len(steps) >= step_cap:
            conclusion = Inconclusive("cap")
            break
        value, idx = best
        curve = model.curves[idx]
        for i, c in enumerate(curve.cls.coeffs):
            residual[i] -= c
        curve_counts[curve.label] -= 1
        subtracted[curve.label] = subtracted.get(curve.label, 0) + 1
        steps.append(
            ForcingStep(
                curve_label=curve.label,
                pairing_value=value,
                residual_after=DivisorClass(model.model_id, tuple(residual)),
            )
        )
    return ForcingTrace(start=start, steps=tuple(steps), conclusion=conclusion)


@dataclass(frozen=True)
class SectionCountResult:
    """A section count (h0) with its certificate chain.

    ``value`` is None for "unknown": the engine refuses to guess.  A known
    value always travels with a non-empty chain.
    """

    value: int | None
    certificate_chain: tuple[RuleApplication, ...]

    def __post_init__(self):
        object.__setattr__(self, "certificate_chain", tuple(self.certificate_chain))
        if self.value is not None and not self.certificate_chain:
            raise ValueError("a known section count needs a certificate chain")

    @property
    def is_known(self) -> bool:
        return self.value is not None


def forcing_rule_application(trace: ForcingTrace) -> RuleApplication:
    """Package a forcing trace as a cited rule application."""
    if isinstance(trace.conclusion, UniqueMember):
        values = {
            "start": list(trace.start.coeffs),
            "decomposition": trace.conclusion.as_dict(),
            "step_pairings": [s.pairing_value for s in trace.steps],
        }
    else:
        values = {
            "start": list(trace.start.coeffs),
            "inconclusive": trace.conclusion.reason,
            "steps_taken": len(trace.steps),
        }
    return RuleApplication(rule="fixed-component-forcing", citation=FORCING_CITATION, values=values)


def h0_unique_member(trace: ForcingTrace) -> SectionCountResult:
    """Convert a forcing trace into a section count.

    Returns 1 when the trace concludes ``UniqueMember`` (for the zero
    class: constants only), and unknown otherwise.
    """
    if isinstance(trace.conclusion, UniqueMember):
        if trace.start.is_zero:
            return SectionCountResult(
                value=1,
                certificate_chain=(
                    RuleApplication(
                        rule="trivial-class",
                        citation="the zero class has only the constant sections",
                        values={"h0": 1},
                    ),
                ),
            )
        return SectionCountResult(
            value=1,
            certificate_chain=(
                forcing_rule_application(trace),
                RuleApplication(
                    rule="unique-member-section-count",
                    citation=UNIQUE_MEMBER_CITATION,
                    values={"h0": 1, "decomposition": trace.conclusion.as_dict()},
                ),
            ),
        )
    return SectionCountResult(
        value=None,
        certificate_chain=(forcing_rule_application(trace),),
    )
