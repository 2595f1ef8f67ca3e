"""Independent checks that validate the engine without trusting it.

Each suite evaluates claims along a second, independent route: exhaustive
grid enumeration against the forcing engine, Gram-matrix evaluation
against closed forms, all registry orders against the default order, and
randomized models against the bilinearity/pullback/scaling laws.  All
randomness is seed-deterministic (per-trial derived seeds), and every
report embeds its seed.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random

from .constructions import blow_up, build_tower, double_cover, pullback
from .errors import InvalidParameter
from .lattice import DivisorClass, RegisteredCurve, SurfaceModel, Value, exact_int
from .linsys import UniqueMember, fixed_part_forcing
from .schema import document

GRID_CAP = 10**8


class OracleReport(Value):
    __slots__ = _fields = ("suite", "trials", "failures", "seed")

    def __init__(self, suite: str, trials: int, failures: tuple[str, ...], seed: int):
        self._set_fields(suite, trials, tuple(failures), seed)


def oracle_report_to_dict(report: OracleReport) -> dict:
    return document(
        "oracle-report",
        suite=report.suite,
        trials=report.trials,
        failures=list(report.failures),
        seed=report.seed,
    )


def check_grid(model: SurfaceModel, coeff_bound: int) -> None:
    """Raise :class:`InvalidParameter` unless ``coeff_bound`` is an integer
    >= 0 whose grid over the curves of ``model`` holds at most ``GRID_CAP``
    points."""
    exact_int(coeff_bound, "coeff_bound", 0)
    grid = (coeff_bound + 1) ** len(model.curves)
    if grid > GRID_CAP:
        raise InvalidParameter(f"grid of {grid} points exceeds the cap of {GRID_CAP}")


def enumerate_decompositions(
    model: SurfaceModel,
    target: DivisorClass,
    coeff_bound: int,
) -> list[dict[str, int]]:
    """All ways to write ``target`` as a bounded non-negative combination
    of registered curves, by exhaustive search over the grid.

    Each returned map sends curve labels to counts in 1..coeff_bound (zero
    counts omitted).  Raises as :func:`check_grid` does first.
    """
    model._check_owned(target)
    check_grid(model, coeff_bound)
    columns = [(c.label, c.cls.coeffs) for c in model.curves]
    found = []
    size = model.size
    for counts in itertools.product(range(coeff_bound + 1), repeat=len(columns)):
        acc = [0] * size
        for k, (_, coeffs) in zip(counts, columns):
            if k:
                for i, c in enumerate(coeffs):
                    acc[i] += k * c
        if tuple(acc) == target.coeffs:
            found.append({label: k for k, (label, _) in zip(counts, columns) if k})
    return found


def identity_suite(n_list, m_max_per_n: int = 20, seed: int = 0) -> OracleReport:
    """Evaluate every printed identity through the constructed models and
    compare with its closed form.

    Checked per n: A^2 = 8, D^2 = 4, (F')^2 = -3, (Gamma_n')^2 = -3,
    F'.Gamma_n' = 1, L.F' = -2, L.Gamma_n' = -2; per (n, m):
    (mA - R).Gamma_n = 4(m-1) - n^2 and (mL - F').Gamma_n' = -2m - 1.
    The left sides come from Gram evaluation only; the right sides are the
    closed forms.  A failure localizes a bug to one of the two routes.
    """
    exact_int(m_max_per_n, "m_max_per_n", 0)
    exact_int(seed, "seed")
    failures = []
    trials = 0

    def check(n, label, got, want):
        nonlocal trials
        trials += 1
        if got != want:
            failures.append(f"n={n}: {label}: constructed {got} != closed form {want}")

    for n in n_list:
        tower = build_tower(n)
        base, bb, top = tower.base, tower.base_blowup, tower.cover_blowup
        member, half_branch = tower.classes["A"], tower.classes["R"]
        one_dim, headline = tower.classes["L"], tower.classes["D"]
        kernel = tower.classes["G_n"]
        f_strict = bb.curve("F'").cls
        k_strict = bb.curve("Gamma_n'").cls

        check(n, "A^2", base.self_int(member), 8)
        check(n, "D^2", top.self_int(headline), 4)
        check(n, "(F')^2", bb.self_int(f_strict), -3)
        check(n, "(Gamma_n')^2", bb.self_int(k_strict), -3)
        check(n, "F'.Gamma_n'", bb.pair(f_strict, k_strict), 1)
        check(n, "L.F'", bb.pair(one_dim, f_strict), -2)
        check(n, "L.Gamma_n'", bb.pair(one_dim, k_strict), -2)
        for m in range(1, m_max_per_n + 1):
            check(
                n,
                f"(mA - R).Gamma_n at m={m}",
                base.pair(m * member - half_branch, kernel),
                4 * (m - 1) - n * n,
            )
            check(
                n,
                f"(mL - F').Gamma_n' at m={m}",
                bb.pair(m * one_dim - f_strict, k_strict),
                -2 * m - 1,
            )
    return OracleReport(suite="identity", trials=trials, failures=tuple(failures), seed=seed)


def forcing_order_check(
    model: SurfaceModel, base_class: DivisorClass, m_cap: int = 5
) -> OracleReport:
    """Run forcing of every multiple m <= m_cap under every registry
    permutation and report any disagreement in conclusion or decomposition.
    """
    exact_int(m_cap, "m_cap", 0)
    if len(model.curves) > 6:
        raise InvalidParameter(
            f"registry of {len(model.curves)} curves is too large for "
            f"exhaustive order enumeration (max 6)"
        )
    failures = []
    trials = 0
    orders = list(itertools.permutations(model.curves))
    for m in range(1, m_cap + 1):
        target = m * base_class
        outcomes = []
        for perm in orders:
            variant = SurfaceModel(
                model.model_id, model.basis, model.gram, perm, model.kind, model.exceptional_labels
            )
            trace = fixed_part_forcing(variant, target)
            if isinstance(trace.conclusion, UniqueMember):
                outcomes.append(("unique", tuple(sorted(trace.conclusion.decomposition))))
            else:
                outcomes.append(("inconclusive", trace.conclusion.reason))
            trials += 1
        distinct = set(outcomes)
        if len(distinct) > 1:
            failures.append(
                f"m={m}: registry orders disagree: {sorted(distinct)}"
            )
    return OracleReport(
        suite="forcing-order", trials=trials, failures=tuple(failures), seed=0
    )


def _random_model(rng: random.Random, tag: str) -> SurfaceModel:
    size = rng.randint(1, 8)
    gram = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            gram[i][j] = gram[j][i] = rng.randint(-(10**6), 10**6)
    model_id = f"random({tag})"
    coeffs = [0] * size
    coeffs[rng.randrange(size)] = rng.randint(1, 5)
    curve = RegisteredCurve("c_0", DivisorClass(model_id, coeffs))
    return SurfaceModel(
        model_id=model_id,
        basis=[f"b_{i}" for i in range(size)],
        gram=gram,
        curves=(curve,),
        kind="other",
    )


def _random_class(rng: random.Random, model: SurfaceModel) -> DivisorClass:
    return DivisorClass(model.model_id, [rng.randint(-50, 50) for _ in range(model.size)])


def _bilinearity_trials(
    seed: int, start: int, stop: int, parent: int | None = None
) -> list[str]:
    """The failures of trials ``start`` .. ``stop - 1``, in trial order.

    A forked share passes ``parent``, the pid of the process that forked
    it, and leaves through ``os._exit`` before any trial once that process
    is gone (a signal it could not handle, ``SIGKILL`` included, ends it
    without reaping its children)."""
    failures = []
    for t in range(start, stop):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        rng = random.Random(f"{seed}:{t}")
        model = _random_model(rng, f"{seed}:{t}")
        d1 = _random_class(rng, model)
        d2 = _random_class(rng, model)
        d3 = _random_class(rng, model)
        a = rng.randint(-20, 20)
        b = rng.randint(-20, 20)

        p12 = model.pair(d1, d2)
        if p12 != model.pair(d2, d1):
            failures.append(f"trial {t}: pairing is not symmetric")
        if model.pair(a * d1 + b * d2, d3) != a * model.pair(d1, d3) + b * model.pair(d2, d3):
            failures.append(f"trial {t}: pairing is not bilinear")
        if model.self_int(d1) != model.pair(d1, d1):
            failures.append(f"trial {t}: self_int disagrees with pair")

        points = {f"e_{i + 1}": {"c_0": rng.randint(0, 2)} for i in range(rng.randint(1, 2))}
        blown, blowup_map = blow_up(model, points)
        up1 = pullback(blowup_map, d1)
        up2 = pullback(blowup_map, d2)
        if blown.pair(up1, up2) != p12:
            failures.append(f"trial {t}: blow-up does not preserve pairing on pullbacks")
        first_exc = blown.basis_class(blowup_map.exceptional_labels[0])
        if blown.pair(up1, first_exc) != 0:
            failures.append(f"trial {t}: pullback not orthogonal to exceptional")
        if blown.self_int(first_exc) != -1:
            failures.append(f"trial {t}: exceptional self-intersection != -1")

        covered, cover_map = double_cover(model, d3)
        if covered.pair(pullback(cover_map, d1), pullback(cover_map, d2)) != 2 * p12:
            failures.append(f"trial {t}: cover does not scale pairing by 2")
    return failures


def _fork_share(seed: int, start: int, stop: int) -> int:
    """Run trials ``start`` .. ``stop - 1`` in a forked child; return its pid.

    The child exits 0 only when those trials found no failure, and 1
    otherwise: on a failed trial, on an exception, or once this process is
    gone (it checks between two trials).  A share is a pure function of
    ``(seed, start, stop)``, so a status that is not 0 only says to run the
    share again in the caller.  The child leaves through ``os._exit``
    whatever happens, so it never returns into the caller's stack.
    """
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        clean = False
        try:
            clean = not _bilinearity_trials(seed, start, stop, parent)
        finally:
            os._exit(0 if clean else 1)
    return pid


def bilinearity_suite(trials: int = 10_000, seed: int = 0) -> OracleReport:
    """Randomized models and classes: symmetry, bilinearity, blow-up
    pullback preservation and exceptional orthogonality, cover scaling.

    Each trial derives its own generator from (seed, trial index), so
    results are order-independent and reproducible.  The trials are split
    into one contiguous share per usable CPU, never more shares than
    trials: this process runs the first share and a forked child each
    other one.  The children are reaped in share order, and a share whose
    child did not exit clean (a failed trial, an exception, or a child
    that died) is run again here, so its failures join in trial order and
    its exception is raised with its own type: the report does not depend
    on the split, the first raising share's exception wins, and every
    child is ended and reaped before anything leaves.  A failing share
    costs its trials twice, at worst the one-share time.
    """
    exact_int(trials, "trials", 0)
    exact_int(seed, "seed")
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    shares = max(1, min(len(affinity(0)) if affinity else 1, trials))
    bounds = [trials * k // shares for k in range(shares + 1)]
    children = []  # pid of every child not yet reaped, in share order
    try:
        for k in range(1, shares):
            children.append(_fork_share(seed, bounds[k], bounds[k + 1]))
        failures = _bilinearity_trials(seed, 0, bounds[1])
        for k in range(1, shares):
            status = os.waitpid(children[0], 0)[1]
            del children[0]
            if status:
                failures += _bilinearity_trials(seed, bounds[k], bounds[k + 1])
    finally:
        for pid in children:  # only when leaving early
            import signal  # only here: importing it costs every run 0.15 MB

            # a child already gone or reaped elsewhere must not hide why we leave
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return OracleReport(
        suite="bilinearity", trials=trials, failures=tuple(failures), seed=seed
    )


def enumeration_check(
    n: int = 3, m_cap: int = 4, coeff_bound: int = 10
) -> OracleReport:
    """Exhaustive-grid decompositions of each multiple against the forcing
    engine: the grid must hold the forced decomposition when its counts fit
    ``coeff_bound``, and nothing else."""
    exact_int(m_cap, "m_cap", 0)
    exact_int(coeff_bound, "coeff_bound", 0)
    failures = []
    trials = 0
    tower = build_tower(n)
    bb = tower.base_blowup
    one_dim = tower.classes["L"]
    for m in range(1, m_cap + 1):
        trials += 1
        target = m * one_dim
        found = enumerate_decompositions(bb, target, coeff_bound)
        trace = fixed_part_forcing(bb, target)
        if not isinstance(trace.conclusion, UniqueMember):
            failures.append(f"m={m}: forcing inconclusive ({trace.conclusion.reason})")
            continue
        forced = trace.conclusion.as_dict()
        expected = [forced] if max(forced.values()) <= coeff_bound else []
        if found != expected:
            failures.append(f"m={m}: enumeration found {found}, expected {expected}")
    return OracleReport(
        suite="enumeration", trials=trials, failures=tuple(failures), seed=0
    )
