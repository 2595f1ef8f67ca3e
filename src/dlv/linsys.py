"""Effectivity certificates and section-count accounting.

Four cited rules turn lattice arithmetic into statements about spaces of
sections.  The non-effectivity rule and the forcing's section count each
return their value together with the rule application that records it, a
``{"rule", "citation", "values"}`` dict of exactly what was checked; the
two section transfers return the classes that their caller records:

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

Forcing works on integer vectors, not on classes.  At a model's first
forcing it builds a plan, kept with the model: each curve's row of
gram @ curve, the curve-by-curve pairing matrix, and one fraction-free
(Bareiss) elimination of the visible-cone columns.  A forcing then writes
its start over the cone with one integer matrix-vector product, and each
subtraction lowers the vector of pairings by one row of the pairing
matrix.  When the subtracted curves repeat a cycle, pairings and counts
are affine in the number of passes, so the engine computes exactly how
many passes the selection rule keeps making and applies them at once.  A
trace stores these runs; its steps, residuals included, are expanded only
on request.  The tests hold this engine to a one-step-at-a-time
reference, ``tests/stepwise_reference.py``.

All functions are pure and all value objects immutable; concurrent use is
safe (the plan and the expanded steps are caches, and a race only builds
one twice).
"""

from __future__ import annotations

from functools import cached_property
from operator import sub

from .constructions import MorphismMap
from .errors import InvalidParameter, MismatchedModel
from .lattice import DivisorClass, RegisteredCurve, SurfaceModel, Value, _set, check_on, exact_int
from .schema import IntRuns

NEF_RULE_CITATION = (
    "an effective class on an abelian surface is nef (no curve on it has "
    "negative self-intersection), so a strictly negative pairing with an "
    "irreducible curve of non-negative self-intersection certifies the "
    "class is not effective"
)

WITNESS_FAILED_CITATION = (
    "the nef witness pairs non-negatively with M - R, so the "
    "certificate refuses; beyond this point no section-count "
    "claim is made for the top surface"
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


def certify_not_effective(
    model: SurfaceModel, d: DivisorClass, witness: DivisorClass
) -> tuple[int, dict]:
    """Apply the nef rule to ``d`` with a registered curve as the witness.

    Returns ``(pairing, record)``.  A strictly negative pairing certifies
    that ``d`` is not effective, recorded as ``noneffectivity-on-abelian``;
    otherwise the record is the ``noneffectivity-witness-failed`` refusal:
    the witness proves nothing (in particular it does *not* prove
    effectivity).
    """
    if model.kind != "abelian":
        raise InvalidParameter(
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
        raise InvalidParameter("the witness must be a registered curve of the model")
    # an abelian model registers no curve of negative self-intersection, so
    # the witness is nef and only a strictly negative pairing certifies
    pairing = model.pair(d, witness)
    if pairing < 0:
        rule, citation = "noneffectivity-on-abelian", NEF_RULE_CITATION
        values = {"target": list(d.coeffs), "witness": label, "pairing": pairing}
    else:
        rule, citation = "noneffectivity-witness-failed", WITNESS_FAILED_CITATION
        values = {"witness": label, "pairing": pairing}
    return pairing, {"rule": rule, "citation": citation, "values": values}


def cover_section_split(
    morphism: MorphismMap, m_cls: DivisorClass
) -> tuple[DivisorClass, DivisorClass]:
    """Split sections of the pullback of ``m_cls`` through a double cover.

    Returns the two summand classes on the base, ``(M, M - R)`` where R is
    the retained half-branch class.
    """
    if morphism.kind != "cover" or morphism.branch_half is None:
        raise InvalidParameter("cover_section_split needs a double-cover morphism")
    check_on(m_cls, morphism.target_model, morphism.target_size)
    return m_cls, m_cls - morphism.branch_half


def blowup_section_transfer(
    morphism: MorphismMap, d: DivisorClass
) -> tuple[DivisorClass, list[int]]:
    """Decompose a class on a blow-up as pullback(M) - sum k_i e_i.

    Returns ``(M, [k_1, ...])``: the downstairs class and the imposed
    vanishing orders at the blown-up points.  This is bookkeeping for the
    certificate chain; the section spaces upstairs and downstairs-with-
    vanishing are identified.  M is the head of the coefficient vector,
    the k_i the negated tail.  Raises :class:`InvalidParameter` when
    some k_i would be negative or the class has the wrong length.
    """
    if morphism.kind != "blowup":
        raise InvalidParameter("blowup_section_transfer needs a blow-up morphism")
    if d.model_id != morphism.source_model:
        raise MismatchedModel(
            f"expected a class on the blow-up {morphism.source_model!r}, "
            f"got {d.model_id!r}"
        )
    size = morphism.target_size
    if len(d.coeffs) != size + len(morphism.exceptional_labels):
        raise InvalidParameter("class does not fit the blow-up shape")
    tail = d.coeffs[size:]
    if any(c > 0 for c in tail):
        raise InvalidParameter(
            f"exceptional coefficients {list(tail)} include a positive entry; "
            f"not pullback minus non-negative multiples"
        )
    return DivisorClass(morphism.target_model, d.coeffs[:size]), [-c for c in tail]


# -- fixed-component forcing -------------------------------------------------


class UniqueMember(Value):
    """The linear system has exactly one member, with this decomposition
    into registered curves (label, count), zero counts omitted."""

    __slots__ = _fields = ("decomposition",)

    def __init__(self, decomposition: tuple[tuple[str, int], ...]):
        self._set_fields(decomposition)

    def as_dict(self) -> dict[str, int]:
        return dict(self.decomposition)


class Inconclusive(Value):
    """Forcing could not pin down the system; ``reason`` is one of
    ``no forcing curve``, ``outside registry cone``, ``cap``."""

    __slots__ = _fields = ("reason",)

    def __init__(self, reason: str):
        self._set_fields(reason)


class ForcingStep(Value):
    __slots__ = _fields = ("curve_label", "pairing_value", "residual_after")

    def __init__(self, curve_label: str, pairing_value: int, residual_after: DivisorClass):
        self._set_fields(curve_label, pairing_value, residual_after)


class ForcingRun(Value):
    """``repeats`` consecutive passes through one cycle of subtractions.

    Pass k (counting from 0) subtracts ``curves[s]`` at pairing
    ``pairings[s] + k * shifts[s]``, for each s in cycle order.
    """

    __slots__ = _fields = ("curves", "pairings", "shifts", "repeats")

    def __init__(self, curves: tuple[RegisteredCurve, ...], pairings: tuple[int, ...],
                 shifts: tuple[int, ...], repeats: int):
        _set(self, "curves", curves)
        _set(self, "pairings", pairings)
        _set(self, "shifts", shifts)
        _set(self, "repeats", repeats)


class ForcingTrace(Value):
    """A forcing as its runs, in order, and its conclusion.

    ``steps`` expands the runs into one :class:`ForcingStep` per
    subtraction, residual included; it is built on first access.
    """

    _fields = ("start", "runs", "conclusion")
    __slots__ = (*_fields, "__dict__")  # the ``steps`` cache

    def __init__(self, start: DivisorClass, runs: tuple[ForcingRun, ...],
                 conclusion: UniqueMember | Inconclusive):
        self._set_fields(start, runs, conclusion)

    def step_pairings(self) -> list[int]:
        """The pairing value of every subtraction, in order."""
        return list(_pairing_runs(self))

    @cached_property
    def steps(self) -> tuple[ForcingStep, ...]:
        curves = [curve for run in self.runs for curve in run.curves * run.repeats]
        residual = self.start.coeffs
        steps = []
        for curve, value in zip(curves, self.step_pairings()):
            residual = (*map(sub, residual, curve.cls.coeffs),)
            steps.append(
                ForcingStep(curve.label, value, DivisorClass(self.start.model_id, residual))
            )
        return tuple(steps)


def _pairing_runs(trace: ForcingTrace) -> IntRuns:
    """The pairings of ``trace``, in order, as a sequence that keeps only
    its runs; :meth:`ForcingTrace.step_pairings` lists them."""
    return IntRuns((run.pairings, run.shifts, run.repeats) for run in trace.runs)


def _fraction_free_inverse(
    columns: list[tuple[int, ...]], n_rows: int
) -> tuple[tuple[tuple[int, ...], ...], int] | None:
    """Bareiss (1968) fraction-free Gauss-Jordan elimination of ``columns``.

    Returns ``(inverse, det)`` such that, whenever sum x_j * columns[j] = b
    has a solution, it is unique and det * x = inverse @ b; returns None
    when the columns are linearly dependent.  Every intermediate entry is a
    minor of [columns | identity], so each division is exact.
    """
    n_cols = len(columns)
    aug = [
        [col[i] for col in columns] + [int(i == j) for j in range(n_rows)]
        for i in range(n_rows)
    ]
    previous = 1
    for col in range(n_cols):
        sel = next((r for r in range(col, n_rows) if aug[r][col]), None)
        if sel is None:
            return None  # dependent columns: a representation would not be unique
        aug[col], aug[sel] = aug[sel], aug[col]
        pivot_row = aug[col]
        pivot = pivot_row[col]
        for r in range(n_rows):
            if r != col:
                factor = aug[r][col]
                aug[r] = [
                    (pivot * a - factor * b) // previous for a, b in zip(aug[r], pivot_row)
                ]
        previous = pivot
    return tuple([tuple(aug[j][n_cols:]) for j in range(n_cols)]), previous


class _ForcingPlan(Value):
    """What forcing needs of one model, computed at its first forcing.

    ``rows[i]`` is gram @ curve_i, so a class pairs with curve i in one dot
    product; ``meets[j][i]`` is curve_j . curve_i, the change in every
    pairing when curve j is subtracted.  ``columns`` span the visible cone
    (the registered curves, then the exceptional classes) and ``solver``
    is their fraction-free inverse, or None when they are dependent.
    """

    __slots__ = _fields = ("rows", "meets", "columns", "solver")

    def __init__(self, rows: tuple[tuple[int, ...], ...], meets: tuple[tuple[int, ...], ...],
                 columns: tuple[tuple[int, ...], ...],
                 solver: tuple[tuple[tuple[int, ...], ...], int] | None):
        self._set_fields(rows, meets, columns, solver)

    @classmethod
    def of(cls, model: SurfaceModel) -> "_ForcingPlan":
        plan = model._forcing_plan
        if plan is None:
            curves = [curve.cls.coeffs for curve in model.curves]
            # the Gram matrix is symmetric, so its rows are its columns
            rows = tuple([tuple([_dot(curve, g) for g in model.gram]) for curve in curves])
            meets = tuple([tuple([_dot(curve, row) for row in rows]) for curve in curves])
            columns = curves + [
                model.basis_class(label).coeffs for label in model.exceptional_labels
            ]
            plan = cls(rows, meets, tuple(columns), _fraction_free_inverse(columns, model.size))
            object.__setattr__(model, "_forcing_plan", plan)
        return plan

    def represent(self, coeffs: tuple[int, ...]) -> list[int] | None:
        """The unique exact integer x with sum x_j * columns[j] = coeffs,
        or None when there is none."""
        if self.solver is None:
            return None
        inverse, det = self.solver
        solution = []
        for row in inverse:
            value, rest = divmod(_dot(row, coeffs), det)
            if rest:
                return None  # not an integer combination, or inconsistent
            solution.append(value)
        for i, target in enumerate(coeffs):
            if sum(x * col[i] for x, col in zip(solution, self.columns)) != target:
                return None  # inconsistent: coeffs lie outside the span
        return solution


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v) if a)


def _first_all_negative(pieces) -> int | None:
    """Smallest k >= 0 with a + b*k < 0 for every ``(a, b)`` in ``pieces``,
    or None when there is none.

    Each inequality holds on a half-line of k, so together they hold on an
    interval; its start is where a condition excluded by one of them
    first fails.  The complement of that interval need not be an
    interval, so the first failure cannot be found by bisection.
    """
    lo, hi = 0, None
    for a, b in pieces:
        if b > 0:  # holds for k <= (-a - 1) / b
            top = (-a - 1) // b
            hi = top if hi is None else min(hi, top)
        elif b < 0:  # holds for k >= a / -b + 1
            lo = max(lo, a // -b + 1)
        elif a >= 0:
            return None
    return lo if hi is None or lo <= hi else None


def _cycle_run(
    meets, pairings: list[int], counts: list[int], cycle: list[int], steps_left: int
) -> tuple[int, list[int], list[int]]:
    """How many passes through ``cycle`` the selection rule makes in a row
    from this state, with the pairing before each subtraction of the first
    pass and the change in every pairing per pass.

    Before step s of pass k, pairing i is ``p_i + k * shift_i`` and count
    i is ``c_i - k * uses_i``, both affine in k.  The passes stop at the
    smallest k where, at some step, the chosen curve stops pairing
    negatively or runs out of count (which includes the residual reaching
    zero), or a competitor starts to win, or the cap would be passed.
    """
    size = len(pairings)
    shift = [0] * size
    uses = [0] * size
    for j in cycle:
        uses[j] += 1
        for i in range(size):
            shift[i] -= meets[j][i]
    repeats = steps_left // len(cycle)
    p, c = list(pairings), list(counts)
    firsts = []
    for j in cycle:
        firsts.append(p[j])
        bounds = [
            _first_all_negative([(-p[j] - 1, -shift[j])]),  # pairing turns >= 0
            _first_all_negative([(c[j] - 1, -uses[j])]),  # count falls to <= 0
        ]
        for i in range(size):
            if i != j:
                tie = int(i < j)  # an earlier curve also wins a tie
                bounds.append(
                    _first_all_negative(
                        [
                            (p[i], shift[i]),
                            (-c[i], uses[i]),
                            (p[i] - p[j] - tie, shift[i] - shift[j]),
                        ]
                    )
                )
        repeats = min([repeats] + [b for b in bounds if b is not None])
        for i in range(size):
            p[i] -= meets[j][i]
        c[j] -= 1
    return repeats, firsts, shift


# The longest cycle the engine looks for; a longer one is stepped through.
# On the verified tower the cycle is F', Gamma_n'.
_MAX_CYCLE = 8


def _repeated_tail(history: list[int]) -> list[int] | None:
    """The shortest block that ends ``history`` twice in a row, if any."""
    for length in range(1, min(len(history) // 2, _MAX_CYCLE) + 1):
        if history[-length:] == history[-2 * length : -length]:
            return history[-length:]
    return None


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

    ``step_cap``, an ``int`` >= 0, defaults to 10 x (sum of the start's
    curve coefficients) + 10 as a hard backstop; each subtraction lowers
    that sum by exactly one, so a concluding run of the verified tower
    never nears the cap.

    Once the subtractions repeat a cycle, the engine computes exactly how
    many more passes the rule would make through it and applies them at
    once, as one :class:`ForcingRun`.
    """
    model._check_owned(start)
    if step_cap is not None:
        exact_int(step_cap, "step_cap", 0)
    if start.is_zero:
        return ForcingTrace(start=start, runs=(), conclusion=UniqueMember(()))

    plan = _ForcingPlan.of(model)
    curves = model.curves
    solution = plan.represent(start.coeffs)
    if solution is None:
        # no curve is visibly contained, and the residual never reaches zero
        counts, clear = [0] * len(curves), False
    else:
        counts, clear = solution[: len(curves)], not any(solution[len(curves) :])
    if step_cap is None:
        step_cap = max(10 * sum(counts) + 10, 1)

    initial = list(counts)
    pairings = [_dot(start.coeffs, row) for row in plan.rows]
    meets = plan.meets
    runs: list[ForcingRun] = []
    history: list[int] = []  # single subtractions since the last cycle tried
    taken = 0
    conclusion: UniqueMember | Inconclusive
    while True:
        if clear and not any(counts):
            decomposition = tuple(
                [
                    (curve.label, before - after)
                    for curve, before, after in zip(curves, initial, counts)
                    if before > after
                ]
            )
            conclusion = UniqueMember(decomposition)
            break
        best = None
        has_negative = False
        for idx, value in enumerate(pairings):
            if value < 0:
                has_negative = True
                if counts[idx] > 0 and (best is None or value < pairings[best]):
                    best = idx
        if not has_negative:
            conclusion = Inconclusive("no forcing curve")
            break
        if best is None:
            conclusion = Inconclusive("outside registry cone")
            break
        if taken >= step_cap:
            conclusion = Inconclusive("cap")
            break
        runs.append(ForcingRun((curves[best],), (pairings[best],), (0,), 1))
        pairings = [p - d for p, d in zip(pairings, meets[best])]
        counts[best] -= 1
        taken += 1
        history.append(best)
        cycle = _repeated_tail(history)
        if cycle is None:
            continue
        history = []
        repeats, firsts, shift = _cycle_run(meets, pairings, counts, cycle, step_cap - taken)
        if repeats:
            runs.append(
                ForcingRun(
                    tuple([curves[j] for j in cycle]),
                    tuple(firsts),
                    tuple([shift[j] for j in cycle]),
                    repeats,
                )
            )
            pairings = [p + repeats * d for p, d in zip(pairings, shift)]
            for j in cycle:
                counts[j] -= repeats
            taken += repeats * len(cycle)
    return ForcingTrace(start=start, runs=tuple(runs), conclusion=conclusion)


def h0_unique_member(trace: ForcingTrace) -> tuple[int | None, list[dict]]:
    """Convert a forcing trace into a section count, with the forcing
    recorded as a cited rule application.

    Returns ``(h0, records)``: h0 is 1 when the trace concludes
    ``UniqueMember`` (for the zero class: constants only), and None, for
    unknown, otherwise; the engine refuses to guess.  The forcing record's
    ``step_pairings`` is an :class:`~dlv.schema.IntRuns` over the trace's
    runs, so it stays small however many subtractions it stands for.
    """
    conclusion = trace.conclusion
    unique = isinstance(conclusion, UniqueMember)
    if unique and trace.start.is_zero:
        citation = "the zero class has only the constant sections"
        return 1, [{"rule": "trivial-class", "citation": citation, "values": {"h0": 1}}]
    values = {"start": list(trace.start.coeffs)}
    if unique:
        values.update(decomposition=conclusion.as_dict(), step_pairings=_pairing_runs(trace))
    else:
        values.update(inconclusive=conclusion.reason, steps_taken=len(_pairing_runs(trace)))
    forcing = {"rule": "fixed-component-forcing", "citation": FORCING_CITATION, "values": values}
    if not unique:
        return None, [forcing]
    count = {
        "rule": "unique-member-section-count",
        "citation": UNIQUE_MEMBER_CITATION,
        "values": {"h0": 1, "decomposition": conclusion.as_dict()},
    }
    return 1, [forcing, count]
