"""Tests of the benchmark harness itself, with no timing bounds.

Run from the repository root:  python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_and_layer_pass():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json_line(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for name in ("verify-large-n", "sweep-small-n", "oracle-mix"):
        assert f"smoke {name} trace=1:" in proc.stdout


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-large-n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _verification_report(n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "from dlv.cli import console_main; console_main()",
         "verify", "--n", str(n), "--format", "json"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_gate_passes_a_correct_report():
    failed, problems, facts = checks.check_verification(_verification_report(5), 5)
    assert (failed, problems) == (0, [])
    assert facts["instances"] == checks.verify_ops(5) == 8


@pytest.mark.parametrize(
    "index, field, value",
    [
        (-1, "certificate_value", 0),
        (-1, "status", "Verified"),
        (0, "h0", True),
        (0, "a_n_squared", 9),
    ],
)
def test_gate_counts_a_wrong_instance_as_one_failed_operation(index, field, value):
    doc = _verification_report(5)
    doc["instances"][index][field] = value
    failed, problems, _ = checks.check_verification(doc, 5)
    assert failed == 1 and problems


def test_gate_checks_the_forced_decomposition():
    doc = _verification_report(5)
    for app in doc["instances"][2]["certificate_chain"]:
        if app["rule"] == checks.FORCING_RULE:
            app["values"]["decomposition"] = {"F'": 3, "Gamma_n'": 2}
    failed, _, _ = checks.check_verification(doc, 5)
    assert failed == 1


def test_gate_fails_a_whole_report_for_the_wrong_n():
    failed, _, _ = checks.check_verification(_verification_report(5), 7)
    assert failed == checks.verify_ops(7)


def test_oracle_gate_counts_failures_and_trial_counts():
    expected = checks.oracle_suite_trials(50)
    doc = {
        "schema": "oracle-run",
        "failures_total": 2,
        "reports": [
            {"suite": s, "trials": t, "seed": 7 if s in ("identity", "bilinearity") else 0,
             "failures": ["x", "y"] if s == "bilinearity" else []}
            for s, t in expected.items()
        ],
    }
    assert checks.check_oracle(doc, 7, 50)[0] == 2
    doc["reports"][0]["trials"] -= 1
    assert checks.check_oracle(doc, 7, 50)[0] == 2 + expected["identity"]


def test_gate_fails_a_malformed_report_instead_of_stopping():
    doc = _verification_report(5)
    doc["instances"][3]["certificate_chain"] = 5
    workload = run.make_workload("verify-large-n", 0, smoke=True)
    failed, problems, _ = run.gate(workload, doc)
    assert failed == workload.ops and "malformed" in problems[0]


# Writes the real report, then adds a per-process nonce, so every cold run
# writes different bytes while each report alone passes the closed forms.
NONCE_MAIN = (
    "import json, sys, time\n"
    "from dlv.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "out = sys.argv[sys.argv.index('--out') + 1]\n"
    "doc = json.load(open(out))\n"
    "doc['nonce'] = time.time_ns()\n"
    "json.dump(doc, open(out, 'w'))\n"
    "sys.exit(code)\n"
)


def test_loop_fails_every_repetition_whose_bytes_differ_from_the_first(monkeypatch):
    monkeypatch.setattr(run, "CLI_MAIN", NONCE_MAIN)
    os.makedirs(run.OUT, exist_ok=True)
    workload = run.make_workload("verify-large-n", 0, smoke=True)
    result = run.Run()
    samples, _, _ = run.cli_loop(workload, run.child_env(workload), 1.0, result)
    assert len(samples) >= 2
    assert samples[0]["failed"] == 0
    assert all(s["failed"] == workload.ops for s in samples[1:])
    assert result.failed == (len(samples) - 1) * workload.ops
    assert "differ from the first" in result.problems[-1]
