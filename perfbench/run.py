#!/usr/bin/env python3
"""The dlv benchmark: cold CLI workloads, a closed-form correctness gate and
a traced in-process layer pass.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-mix --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke

The load is a closed loop with one client: one cold ``dlv`` subprocess at a
time, the next started only after the previous has exited, for about
``--seconds`` seconds.  Before each invocation a cold child pays only the
set-up every CLI command pays (process start, ``import dlv``,
``build_tower`` for the workload's first n).  With ``--trace 0`` the run
reports the end-to-end metrics.  With ``--trace 1`` it runs the same
loop, then in-process passes of the same command, two untraced and two
traced, and reports the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the
environment and the measured input facts, is written under
``perfbench/out/``.

``--smoke`` runs every workload once at a tiny size, traced pass included,
with no timing bounds, and exits 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

import checks
import tracing
from tracing import median, tail

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("verify-large-n", "sweep-small-n", "oracle-mix")
CLI_MAIN = "from dlv.cli import console_main; console_main()"
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import dlv.cli; "
    "print(repr(time.perf_counter() - t))"
)
IMPORT_REPS = 5
CHILD_TIMEOUT_S = 150


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


class Workload:
    """One CLI command, its closed-form operation count and its check."""

    def __init__(self, name, argv, ops, check, first_n, schema_check):
        self.name = name
        self.argv = argv
        self.ops = ops
        self.check = check
        self.first_n = first_n
        self.schema_check = schema_check


def make_workload(name: str, seed: int, smoke: bool) -> Workload:
    if name == "verify-large-n":
        n = 5 if smoke else 41
        return Workload(
            name, ["verify", "--n", str(n), "--format", "json"], checks.verify_ops(n),
            lambda doc: checks.check_verification(doc, n), n, False,
        )
    if name == "sweep-small-n":
        hi = 7 if smoke else 21
        ns = list(range(3, hi + 1, 2))
        return Workload(
            name, ["sweep", "--n-range", f"3..{hi}", "--format", "json"],
            sum(checks.verify_ops(n) for n in ns),
            lambda doc: checks.check_sweep(doc, ns), 3, True,
        )
    if name == "oracle-mix":
        trials = 50 if smoke else 10_000
        argv = ["oracle", "--format", "json", "--seed", str(seed)]
        if smoke:
            argv += ["--trials", str(trials)]
        return Workload(
            name, argv, sum(checks.oracle_suite_trials(trials).values()),
            lambda doc: checks.check_oracle(doc, seed, trials), 3, False,
        )
    raise ValueError(f"unknown workload {name!r}")


def out_path(name: str) -> str:
    return os.path.join(OUT, name)


def remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def child_env(workload: Workload) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if workload.schema_check:
        env["DLV_SCHEMA_CHECK"] = "1"
    else:
        env.pop("DLV_SCHEMA_CHECK", None)
    return env


def spawn(args: list[str], env: dict, stdout_path: str) -> tuple[float, int | None, float]:
    """Run ``python3 *args`` to completion.

    Returns ``(wall_s, exit_code, peak_rss_mb)``; ``exit_code`` is None when
    the child was killed for running past ``CHILD_TIMEOUT_S``.  The peak RSS
    comes from ``wait4`` for this child.  A child's peak RSS is at least the
    RSS of the process that spawns it, so the caller keeps its own memory
    small while it spawns.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, out_path("child-stderr.txt"), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    reaped = False
    try:
        signal.alarm(CHILD_TIMEOUT_S)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    except ChildTimeout:
        return time.perf_counter() - start, None, 0.0
    finally:
        signal.alarm(0)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def files_equal(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            while True:
                ca, cb = fa.read(1 << 16), fb.read(1 << 16)
                if ca != cb:
                    return False
                if not ca:
                    return True
    except FileNotFoundError:
        return False


def read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def gate(workload: Workload, doc) -> tuple[int, list[str], dict]:
    """The workload's closed-form check; a report too malformed to walk
    fails all its operations instead of stopping the run."""
    try:
        return workload.check(doc)
    except (AttributeError, KeyError, TypeError) as exc:
        return workload.ops, [f"malformed report ({type(exc).__name__}: {exc})"], {}


class Run:
    """Operation accounting and problems of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.side_failures = 0  # failed set-up or import children: not operations

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def setup_child(workload: Workload, env: dict, run: Run) -> float:
    """One cold process start through ``import dlv`` and ``build_tower`` of
    the workload's first n, then exit; returns its wall time."""
    code = f"import dlv; dlv.build_tower({workload.first_n})"
    wall, exit_code, _ = spawn(["-c", code], env, os.devnull)
    if exit_code != 0:
        run.side_failures += 1
        run.problem(f"set-up child exited with {exit_code}")
    return wall


def time_import(env: dict, reps: int, run: Run) -> list[float]:
    result = out_path("import-time.txt")
    times = []
    for _ in range(reps):
        _, exit_code, _ = spawn(["-c", IMPORT_TIMER], env, result)
        try:
            with open(result, encoding="utf-8") as fh:
                times.append(float(fh.read()))
        except (OSError, ValueError):
            exit_code = exit_code or -1
        if exit_code != 0:
            run.side_failures += 1
            run.problem(f"import-timing child exited with {exit_code}")
    return times


def cli_loop(workload: Workload, env: dict, seconds: float, run: Run) -> tuple[list, dict, list]:
    """Closed loop of cold CLI invocations for about ``seconds`` seconds.

    One set-up child (see ``setup_child``) runs before each invocation, so
    the set-up times span the same stretch of the host's speed drift as
    the invocation times.  One untimed child compiles the bytecode first.

    Every repetition is gated: a non-zero exit or a report whose bytes
    differ from the first repetition fails all its operations; otherwise
    the closed-form check of the first report applies to it.  The report
    is parsed only after the loop, so the parent stays small while it
    spawns (see ``spawn``).
    """
    report = out_path("cli-report.json")
    reference = out_path("cli-reference.json")
    remove(reference)
    argv = ["-c", CLI_MAIN, *workload.argv, "--out", report]
    spawn(["-c", "import dlv.cli"], env, os.devnull)
    samples, setup = [], []
    start = time.perf_counter()
    while True:
        setup.append(setup_child(workload, env, run))
        remove(report)
        wall, exit_code, rss = spawn(argv, env, os.devnull)
        if not samples and os.path.exists(report):
            os.replace(report, reference)
            same = True
        else:
            same = files_equal(report, reference)
        samples.append({"wall_s": wall, "exit": exit_code, "same": same, "rss_mb": rss})
        elapsed = time.perf_counter() - start
        if elapsed + median([s["wall_s"] for s in samples]) > seconds:
            break

    doc = read_json(reference)
    ref_failed, problems, facts = gate(workload, doc)
    for p in problems:
        run.problem(f"report: {p}")
    facts["report_bytes"] = os.path.getsize(reference) if doc is not None else 0
    for i, s in enumerate(samples):
        if s["exit"] != 0:
            s["failed"] = workload.ops
            run.problem(f"repetition {i}: exit code {s['exit']}")
        elif not s["same"]:
            s["failed"] = workload.ops
            run.problem(f"repetition {i}: report bytes differ from the first repetition")
        else:
            s["failed"] = ref_failed
        run.attempted += workload.ops
        run.failed += s["failed"]
    return samples, facts, setup


def in_process_pass(workload: Workload, main, run: Run, label: str) -> float:
    """One in-process CLI run of the workload, gated like a repetition:
    its report must match the cold CLI's bytes and the closed forms."""
    report = out_path(f"pass-{label}.json")
    remove(report)
    start = time.perf_counter()
    try:
        exit_code = main([*workload.argv, "--out", report])
    except Exception as exc:  # the gate counts it; the run goes on to report
        exit_code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    failed, problems, _ = gate(workload, read_json(report))
    if exit_code != 0:
        failed = workload.ops
        run.problem(f"{label} pass: exit {exit_code}")
    elif not files_equal(report, out_path("cli-reference.json")):
        failed = workload.ops
        run.problem(f"{label} pass: report bytes differ from the CLI report")
    for p in problems:
        run.problem(f"{label} pass: {p}")
    run.attempted += workload.ops
    run.failed += failed
    return wall


def traced_passes(workload: Workload, seed: int, run: Run) -> tuple[dict, dict]:
    """In-process passes in the order untraced, traced, traced, untraced.

    The order cancels the warm-up of the first pass and any linear drift
    out of ``trace.overhead_s``, the mean traced minus the mean untraced
    pass time.  Each layer metric is the median of the two traced passes.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if workload.schema_check:
        os.environ["DLV_SCHEMA_CHECK"] = "1"
    else:
        os.environ.pop("DLV_SCHEMA_CHECK", None)
    import dlv.cli

    untraced, traced, tracers, per_pass = [], [], [], []
    for label in ("untraced", "traced", "traced", "untraced"):
        if label == "untraced":
            untraced.append(in_process_pass(workload, dlv.cli.main, run, label))
            continue
        tracer = tracing.Tracer(f"{workload.name}/seed-{seed}/pass-{len(tracers) + 1}")
        with tracing.installed(tracer):
            traced_main = tracer.wrap("cli.main", dlv.cli.main)
            traced.append(in_process_pass(workload, traced_main, run, label))
        tracers.append(tracer)
        per_pass.append(tracing.layer_metrics(tracer))
    metrics = {}
    for name in per_pass[0][0]:
        values = [m[name] for m, _ in per_pass]
        # counts repeat exactly between passes; keep them whole numbers
        metrics[name] = values[0] if len(set(values)) == 1 else median(values)
    metrics["trace.overhead_s"] = (sum(traced) - sum(untraced)) / len(traced)
    details = per_pass[0][1]
    details.update({"untraced_pass_s": untraced, "traced_pass_s": traced})
    with open(out_path(f"spans-{workload.name}.json"), "w", encoding="utf-8") as fh:
        json.dump([t.to_dict() for t in tracers], fh, separators=(",", ":"))
    return metrics, details


def environment(seed: int) -> dict:
    # imported only after the loop: hashlib alone adds about 4 MB to this
    # process, and a child's peak RSS can read no lower than the parent's
    import hashlib
    import platform
    import subprocess

    digest = hashlib.sha256()
    package = os.path.join(SRC, "dlv")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        git_sha = result.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple[Run, dict, dict]:
    """Measure one workload; returns the run, its metrics and its details."""
    workload = make_workload(name, seed, smoke)
    env = child_env(workload)
    run = Run()
    metrics: dict = {}
    details: dict = {"workload": name, "argv": workload.argv, "trace": trace, "smoke": smoke}
    parent_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples, facts, setup = cli_loop(workload, env, seconds, run)
    walls = [s["wall_s"] for s in samples]
    metrics["setup_s"] = median(setup)
    details.update(
        {
            "setup_samples": len(setup),
            "inputs": {"operations_per_invocation": workload.ops, **facts},
            "samples": len(samples),
            "sample_wall_s": walls,
            "parent_peak_rss_mb_before_loop": parent_rss_mb,
        }
    )
    if trace == 0:
        metrics["wall_s"] = median(walls)
        metrics["ops_per_s"] = median(
            [(workload.ops - s["failed"]) / s["wall_s"] for s in samples]
        )
        metrics["peak_rss_mb"] = median([s["rss_mb"] for s in samples])
        metrics["report_bytes"] = facts["report_bytes"]
    else:
        tail_s, pct, _ = tail(walls)
        metrics["wall_s_tail"] = tail_s
        details["wall_s_tail_percentile"] = pct
        imports = time_import(env, 1 if smoke else IMPORT_REPS, run)
        metrics["cli.import_s"] = median(imports)
        layer, layer_details = traced_passes(workload, seed, run)
        metrics.update(layer)
        details.update(layer_details)
    details["error_rate"] = run.failed / run.attempted
    details["problems"] = run.problems
    return run, metrics, details


def declared_metrics(trace: int) -> dict:
    """Name to unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def emit(run_ok: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": run_ok, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main_bench(args) -> int:
    declared = declared_metrics(args.trace)
    run, measured, details = run_workload(args.workload, args.seed, args.seconds, args.trace, False)
    missing = sorted(set(declared) - set(measured))
    if missing:
        print(f"perfbench: declared metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()}
    details["environment"] = environment(args.seed)
    details["metrics"] = measured
    record = out_path(f"result-{args.workload}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
    for name, m in metrics.items():
        print(f"{args.workload}  {name:<34} {m['value']!r} {m['unit']}")
    print(f"{args.workload}  {'error_rate':<34} {details['error_rate']!r} ratio"
          f"  ({run.failed} of {run.attempted} operations failed)")
    print(f"{args.workload}  samples {details['samples']}, inputs {json.dumps(details['inputs'])}")
    for p in run.problems:
        print(f"{args.workload}  problem: {p}")
    print(json.dumps({"environment": details["environment"], "record": os.path.relpath(record, ROOT)}))
    ok = run.failed == 0 and run.side_failures == 0
    emit(ok, run.attempted, run.failed, metrics)
    return 0


def main_smoke(seed: int) -> int:
    attempted = failed = 0
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            run, metrics, details = run_workload(name, seed, 0, trace, True)
            attempted += run.attempted
            failed += run.failed
            ok = ok and run.failed == 0 and run.side_failures == 0
            print(f"smoke {name} trace={trace}: {run.attempted - run.failed}/{run.attempted} "
                  f"operations correct, inputs {json.dumps(details['inputs'])}")
            for p in run.problems:
                print(f"smoke {name} trace={trace}: problem: {p}")
    emit(ok, attempted, failed, {})
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once, tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(SRC, "dlv", "cli.py")):
        print(f"perfbench: no dlv source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.smoke:
        return main_smoke(args.seed)
    return main_bench(args)


if __name__ == "__main__":
    sys.exit(main())
