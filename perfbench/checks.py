"""Closed-form correctness gate for the dlv benchmark.

Every expected value here is computed from the mathematics, never read
from dlv: for odd n the certified threshold is T = (n^2 + 3) / 4, the
instances are m = 1 .. T + 1, and each instance must report A^2 = 8,
D^2 = 4, the witness pairing 4(m - 1) - n^2, the forced decomposition
{F': m, Gamma_n': m}, status ``Verified`` with h0 = 1 for m <= T and status
``BeyondThreshold`` with h0 "unknown" for m = T + 1.

An operation is one (n, m) instance of a verify or sweep report, or one
trial of an oracle run.  Each check returns ``(failed, problems, facts)``:
the number of failed operations, a few human-readable problems, and the
measured input facts of the report.
"""

from __future__ import annotations

FORCING_RULE = "fixed-component-forcing"
MAX_PROBLEMS = 5

# The oracle configuration the CLI runs by default: identity suite over odd
# n in 3..99 with m <= 20 (7 per-n identities plus 2 per (n, m)), forcing
# re-run for m <= 5 under all 3! orders of the three registered curves of
# the blown-up base, and the enumeration check for m <= 4.
ORACLE_IDENTITY_NS = tuple(range(3, 100, 2))
ORACLE_IDENTITY_M_MAX = 20
ORACLE_FORCING_ORDER_TRIALS = 5 * 6
ORACLE_ENUMERATION_TRIALS = 4


def threshold(n: int) -> int:
    """Largest m with 4(m - 1) - n^2 < 0, for odd n."""
    return (n * n + 3) // 4


def verify_ops(n: int) -> int:
    return threshold(n) + 1


def oracle_suite_trials(trials: int) -> dict[str, int]:
    """Expected trial count per suite for ``dlv oracle --trials trials``."""
    return {
        "identity": len(ORACLE_IDENTITY_NS) * (7 + 2 * ORACLE_IDENTITY_M_MAX),
        "bilinearity": trials,
        "forcing-order": ORACLE_FORCING_ORDER_TRIALS,
        "enumeration": ORACLE_ENUMERATION_TRIALS,
    }


def _instance_problem(n: int, m: int, inst: dict) -> str | None:
    t = threshold(n)
    verified = m <= t
    expected = {
        "status": "Verified" if verified else "BeyondThreshold",
        "h0": 1 if verified else "unknown",
        "a_n_squared": 8,
        "d_n_squared": 4,
        "certificate_value": 4 * (m - 1) - n * n,
    }
    for key, want in expected.items():
        got = inst.get(key)
        if got != want or type(got) is not type(want):
            return f"n={n} m={m}: {key} {got!r} != {want!r}"
    decomposition = {"F'": m, "Gamma_n'": m}
    forced = [
        app.get("values", {}).get("decomposition")
        for app in inst.get("certificate_chain", ())
        if app.get("rule") == FORCING_RULE
    ]
    if not forced or any(d != decomposition for d in forced):
        return f"n={n} m={m}: forced decompositions {forced} != {decomposition}"
    return None


def _forcing_steps(inst: dict) -> int:
    return sum(
        len(app.get("values", {}).get("step_pairings", ()))
        for app in inst.get("certificate_chain", ())
        if app.get("rule") == FORCING_RULE
    )


def check_verification(doc, n: int) -> tuple[int, list[str], dict]:
    """Check one verification report for n against the closed forms."""
    ops = verify_ops(n)
    if not isinstance(doc, dict) or doc.get("schema") != "verification-report":
        return ops, [f"n={n}: not a verification report"], {}
    instances = doc.get("instances")
    if doc.get("n") != n or doc.get("m_max") != threshold(n) or not isinstance(instances, list):
        return ops, [f"n={n}: report header does not match n={n}, m_max={threshold(n)}"], {}
    if len(instances) != ops:
        return ops, [f"n={n}: {len(instances)} instances, expected {ops}"], {}
    failed = 0
    problems: list[str] = []
    steps = 0
    for m, inst in enumerate(instances, start=1):
        if not isinstance(inst, dict) or inst.get("m") != m:
            problem = f"n={n}: instance {m} is not the instance for m={m}"
        else:
            problem = _instance_problem(n, m, inst)
            steps += _forcing_steps(inst)
        if problem:
            failed += 1
            problems.append(problem)
    facts = {"instances": len(instances), "forcing_steps": steps}
    return failed, problems[:MAX_PROBLEMS], facts


def check_sweep(doc, ns) -> tuple[int, list[str], dict]:
    ns = list(ns)
    ops = sum(verify_ops(n) for n in ns)
    if not isinstance(doc, dict) or doc.get("schema") != "sweep-report":
        return ops, ["not a sweep report"], {}
    reports = doc.get("reports")
    if not isinstance(reports, list) or len(reports) != len(ns):
        return ops, [f"sweep holds {len(reports or ())} reports, expected {len(ns)}"], {}
    failed = 0
    problems: list[str] = []
    facts = {"towers": len(ns), "instances": 0, "forcing_steps": 0}
    for n, report in zip(ns, reports):
        f, p, fa = check_verification(report, n)
        failed += f
        problems.extend(p)
        facts["instances"] += fa.get("instances", 0)
        facts["forcing_steps"] += fa.get("forcing_steps", 0)
    return failed, problems[:MAX_PROBLEMS], facts


def check_oracle(doc, seed: int, trials: int) -> tuple[int, list[str], dict]:
    """Check an oracle run: every suite ran its expected number of trials
    under the right seed, and nothing failed."""
    expected = oracle_suite_trials(trials)
    ops = sum(expected.values())
    if not isinstance(doc, dict) or doc.get("schema") != "oracle-run":
        return ops, ["not an oracle run"], {}
    reports = {r.get("suite"): r for r in doc.get("reports", ()) if isinstance(r, dict)}
    failed = 0
    problems: list[str] = []
    seen_failures = 0
    for suite, want in expected.items():
        report = reports.get(suite)
        want_seed = seed if suite in ("identity", "bilinearity") else 0
        if report is None or report.get("trials") != want or report.get("seed") != want_seed:
            failed += want
            problems.append(f"suite {suite}: missing, wrong trial count or wrong seed")
            continue
        failures = report.get("failures")
        if not isinstance(failures, list):
            failed += want
            problems.append(f"suite {suite}: no failure list")
            continue
        seen_failures += len(failures)
        if failures:
            failed += min(want, len(failures))
            problems.append(f"suite {suite}: {len(failures)} failures, first {failures[0]!r}")
    if doc.get("failures_total") != seen_failures:
        failed = max(failed, 1)
        problems.append(
            f"failures_total {doc.get('failures_total')!r} != {seen_failures} listed failures"
        )
    facts = {"trials": sum(r.get("trials", 0) for r in reports.values())}
    return failed, problems[:MAX_PROBLEMS], facts
