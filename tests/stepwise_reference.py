"""The reference forcing engine the tests hold ``dlv.linsys`` to.

:func:`stepwise_forcing` applies the selection rule of
:func:`dlv.linsys.fixed_part_forcing` one subtraction at a time, over the
rationals; the run-length engine must reproduce its steps and conclusions
exactly.  :func:`_solve_exact` is the Gaussian elimination it uses, the
reference for the fraction-free cone solve.
"""

from __future__ import annotations

from fractions import Fraction

from dlv.lattice import DivisorClass, SurfaceModel
from dlv.linsys import ForcingStep, Inconclusive, UniqueMember


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


def stepwise_forcing(
    model: SurfaceModel, start: DivisorClass
) -> tuple[tuple[ForcingStep, ...], UniqueMember | Inconclusive]:
    """The reference engine for :func:`~dlv.linsys.fixed_part_forcing`.

    Applies the same selection rule one subtraction at a time, builds every
    residual as it goes, and writes the start over the visible cone by
    Gaussian elimination over the rationals.  Returns the steps and the
    conclusion, which the fast engine must reproduce exactly.  It costs one
    loop iteration per subtraction, so it serves tests only.
    """
    model._check_owned(start)
    if start.is_zero:
        return (), UniqueMember(())

    columns = [curve.cls.coeffs for curve in model.curves]
    for label in model.exceptional_labels:
        columns.append(model.basis_class(label).coeffs)
    solution = _solve_exact(columns, start.coeffs)
    curve_counts = (
        None if solution is None else {c.label: solution[i] for i, c in enumerate(model.curves)}
    )

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
                (c.label, subtracted[c.label])
                for c in model.curves
                if subtracted.get(c.label, 0) > 0
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
    return tuple(steps), conclusion
