import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import pytest

from dlv import InvalidModel
from dlv.cli import main
from dlv.pipeline import canonical_json
from dlv.schema import REPORT_SCHEMA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_text(capsys):
    code, out, err = run(capsys, "verify", "--n", "5", "--format", "text")
    assert code == 0
    assert out.count("Verified") == 7
    assert out.count("BeyondThreshold") == 1


def test_verify_even_n_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--n", "4")
    assert code == 1
    assert "usage" in err


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["schema"] == "verification-report"
    assert document["n"] == 3
    assert len(document["instances"]) == 4
    assert document["instances"][0]["h0"] == 1
    assert document["instances"][-1]["h0"] == "unknown"


def test_verify_single_instance(capsys):
    code, out, err = run(capsys, "verify", "--n", "5", "--m", "3", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert len(document["instances"]) == 1
    assert document["instances"][0]["certificate_value"] == -17


def test_verify_m_max_override(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--m-max", "5", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert [i["m"] for i in document["instances"]] == [1, 2, 3, 4, 5, 6]
    assert sum(1 for i in document["instances"] if i["status"] == "BeyondThreshold") == 3


def test_verify_single_instance_header_names_its_m(capsys):
    # the header used to say "(instances m=1..4)" above the one row of m = 3
    code, out, err = run(capsys, "verify", "--n", "5", "--m", "3")
    assert code == 0
    assert "(instances m=3..3)" in out.splitlines()[0]


def test_verify_m_and_m_max_are_exclusive(capsys):
    # --m-max used to be ignored silently
    code, out, err = run(capsys, "verify", "--n", "5", "--m", "3", "--m-max", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("usage: dlv verify")
    assert "not allowed with argument --m" in err


def test_pair_witness_formula(capsys):
    code, out, err = run(capsys, "pair", "--n", "3", "--expr", "(2*A - R).G_n")
    assert code == 0
    assert out.strip() == "-5"


def test_pair_class_output(capsys):
    code, out, err = run(capsys, "pair", "--n", "3", "--expr", "A - R")
    assert code == 0
    assert out.strip() == "-G + Gamma_n"


def test_pair_json(capsys):
    code, out, err = run(capsys, "pair", "--n", "7", "--expr", "D.D", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["kind"] == "pairing"
    assert document["value"] == 4


def test_pair_expression_error(capsys):
    code, out, err = run(capsys, "pair", "--n", "3", "--expr", "A.Bogus")
    assert code == 1
    assert "offset" in err


def test_pair_cross_model_error(capsys):
    code, out, err = run(capsys, "pair", "--n", "3", "--expr", "A.D")
    assert code == 1
    assert "error" in err


def test_pair_of_a_number_is_an_expression_error(capsys):
    code, out, err = run(capsys, "pair", "--n", "3", "--expr", "2.F")
    assert (code, out) == (1, "")
    assert err == (
        "dlv: expression error: pairing needs a divisor class on both sides (at offset 1)\n"
    )


def test_pair_expression_that_starts_with_a_minus(capsys):
    # argparse reads "-F.G" after a space as a flag, so README says --expr=-F.G
    code, out, err = run(capsys, "pair", "--n", "3", "--expr=-F.G")
    assert (code, out) == (0, "-1\n")
    code, out, err = run(capsys, "pair", "--n", "3", "--expr", "-F.G")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "dlv: error: argument --expr: expected one argument"


@pytest.mark.parametrize(
    "expr", ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"], ids=["parens", "minus"]
)
def test_pair_deep_nesting_is_an_expression_error(capsys, expr):
    code, out, err = run(capsys, "pair", "--n", "3", f"--expr={expr}")
    assert code == 1
    assert "nesting deeper than 200 levels (at offset 200)" in err


def test_pair_long_literal_prints_in_full(capsys):
    # 5000 digits: past the int<->str limit of 4300 that Python sets by default
    literal = "9" * 5000
    code, out, err = run(capsys, "pair", "--n", "3", "--expr", literal)
    assert code == 0
    assert out == literal + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pair_long_product_prints_in_full(capsys, fmt):
    # (10**3000 - 1)**2 = 10**6000 - 2 * 10**3000 + 1 has 6000 digits
    nines = "9" * 3000
    code, out, err = run(
        capsys, "pair", "--n", "3", "--expr", f"{nines}*{nines}", "--format", fmt
    )
    assert code == 0
    assert "9" * 2999 + "8" + "0" * 2999 + "1" in out


def test_sweep_text_counter_on_stderr(capsys):
    code, out, err = run(capsys, "sweep", "--n-range", "3..5")
    assert code == 0
    assert "[1/2] n=3" in err
    assert "[2/2] n=5" in err
    assert "n=3" in out and "n=5" in out


def test_sweep_json_counter_on_stderr(capsys):
    code, out, err = run(capsys, "sweep", "--n-range", "3..5", "--format", "json")
    assert code == 0
    # the counter, then the time that n took
    assert re.fullmatch(r"\[1/2\] n=3 \(\d+\.\d\d s\)\n\[2/2\] n=5 \(\d+\.\d\d s\)\n", err)
    assert [r["n"] for r in json.loads(out)["reports"]] == [3, 5]


def test_sweep_bad_range(capsys):
    for bad in ("4..6", "5..3", "3..", "x..y", "1..3"):
        code, out, err = run(capsys, "sweep", "--n-range", bad)
        assert code == 1


@pytest.mark.parametrize("command", ["sweep", "oracle"])
def test_a_bad_range_is_reported_like_every_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--n-range", "3..1")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (
        "dlv: error: --n-range expects A..B with odd integers 3 <= A <= B, got '3..1'"
    )


_ORACLE = ("oracle", "--n-range", "3..3", "--m-max", "1", "--trials", "0", "--bound", "3")


@pytest.mark.parametrize(
    "argv",
    [
        ("pair", "--expr", "A.A", "--n", "٣"),
        ("verify", "--n", " 3"),
        ("sweep", "--n-range", "3_1..3_3"),
        ("sweep", "--n-range", "٣..٥"),
        ("verify", "--n", "3", "--m", "١"),
        ("verify", "--n", "3", "--m-max", "١"),
        ("verify", "--n", "3", "--seed", "١"),
        (*_ORACLE, "--trials", "1_0"),
        (*_ORACLE, "--m-max", "١"),
        (*_ORACLE, "--bound", "٣"),
        (*_ORACLE, "--seed", "١"),
    ],
    ids=[
        "pair-n",
        "verify-n-space",
        "sweep-underscores",
        "sweep-digits",
        "verify-m",
        "verify-m-max",
        "verify-seed",
        "oracle-trials",
        "oracle-m-max",
        "oracle-bound",
        "oracle-seed",
    ],
)
def test_integer_flags_take_ascii_digits_only(capsys, argv):
    # each was read by int(), which takes any Unicode digit, "_" and
    # surrounding space: "pair --n ٣" printed 8, and the sweep verified n = 31, 33
    *_, flag, value = argv
    if flag == "--n-range":
        line = f"dlv: error: --n-range expects A..B with odd integers 3 <= A <= B, got {value!r}"
    else:
        line = f"dlv: error: argument {flag}: invalid integer value: {value!r}"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == line


def test_sweep_json_deterministic(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["sweep", "--n-range", "3..9", "--format", "json", "--out", str(out_a)]) == 0
    assert main(["sweep", "--n-range", "3..9", "--format", "json", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    document = json.loads(out_a.read_text())
    assert document["schema"] == "sweep-report"
    assert [r["n"] for r in document["reports"]] == [3, 5, 7, 9]


def test_sweep_json_digest_is_pinned(tmp_path):
    # the report contract is byte-level: any change to these bytes needs a
    # schema_version bump, not a new digest
    out = tmp_path / "sweep.json"
    for n_range, digest in [
        ("3..9", "c8d6f797eb6326a8b34ce9bc127cebce499e70ce0af669f4c31ece64002c6150"),
        ("3..21", "43ed958b73dee23840437645ed052fd511495b8292139ae0c6c81f969af8bc4e"),
        ("3..31", "05599e51b38da4a65e094de654ce12becf665ebf30041455f16a37472467fde1"),
    ]:
        assert main(["sweep", "--n-range", n_range, "--format", "json", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, n_range


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_streamed_sweep_is_the_whole_sweep(capsys, fmt):
    from dlv.pipeline import render_report_text, report_to_dict, sweep_to_dict, verify

    code, out, err = run(capsys, "sweep", "--n-range", "3..7", "--format", fmt)
    assert code == 0
    reports = [verify(n) for n in (3, 5, 7)]
    if fmt == "json":
        whole = canonical_json(sweep_to_dict(reports))
    else:
        whole = "\n".join(render_report_text(report_to_dict(r)) for r in reports)
    assert out == whole


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "option", [(), ("--m-max", "3"), ("--m", "2")], ids=["all", "m-max", "m"]
)
def test_streamed_verify_is_the_library_report(capsys, fmt, option):
    from dlv import build_tower
    from dlv.pipeline import (
        VerificationReport,
        render_report_text,
        report_to_dict,
        verify,
        verify_instance,
    )

    for n in range(3, 22, 2):
        code, out, err = run(capsys, "verify", "--n", str(n), *option, "--format", fmt)
        assert code == 0
        if option[:1] == ("--m",):
            instance = verify_instance(build_tower(n), 2)
            report = VerificationReport(n, 2, (instance,), f"single instance n={n}, m=2: Verified")
        else:
            report = verify(n, *(int(v) for v in option[1:]))
        doc = report_to_dict(report)
        assert out == (canonical_json(doc) if fmt == "json" else render_report_text(doc)), n


def test_sweep_text_digest_is_pinned(tmp_path):
    out = tmp_path / "sweep.txt"
    assert main(["sweep", "--n-range", "3..9", "--out", str(out)]) == 0
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "f001117afacfdd3a32b6c659597e9bc5fb33510dee89c29a5cf6b3682aaaf89e"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("verify", "--n", "5"),
            "91152ee3192be5ac99dbb46c7f5a7baa7705a369617e7c0883994066683435d7",
        ),
        (
            ("verify", "--n", "5", "--m", "3"),
            "7168781b033618e4b8ccdde0c67f522769cd17afef424f79adbf9d95852b8fa5",
        ),
        (
            ("oracle", "--trials", "200", "--seed", "1"),
            "cefb1096714cb772032c71894cf99496632749d6e42aea2f990fd2d9c8ce1d08",
        ),
        (
            ("pair", "--n", "3", "--expr", "D.D"),
            "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
        ),
        (
            ("pair", "--n", "3", "--expr", "L"),
            "79dccadc82da104aaacfcadf1b9b7d192af8c8f228e2a8bf7914124227957a0b",
        ),
    ],
    ids=["verify", "verify-single", "oracle", "pair-pairing", "pair-class"],
)
def test_text_digest_is_pinned(tmp_path, argv, digest):
    # the text is rendered from the document, to these bytes
    out = tmp_path / "report.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("oracle", "--n-range", "3..3", "--m-max", "2", "--trials", "10"),
            "a76a50be39895ec538ce30914dd636aad5261ae1fe99bfa5f6560521798c01b9",
        ),
        (
            ("pair", "--n", "7", "--expr", "(2*A - R).G_n"),
            "426b31da98b613aa4670c8229cc393b87ab8dd890896084b79a59ea9b803d17d",
        ),
        (
            ("pair", "--n", "3", "--expr", "2*A - R"),
            "d44fcfa6d7bc700e6da6aabbeb3da3855746f7f90b86bd91b63405ed665f7889",
        ),
        (
            ("verify", "--n", "5", "--m", "3"),
            "e19a98fe9eb9fa806d3a1dc0f72faac4f1701532c0eb97e181061185fb94be85",
        ),
    ],
    ids=["oracle-run", "pair-result-pairing", "pair-result-class", "verification-report"],
)
def test_document_digest_is_pinned(tmp_path, monkeypatch, argv, digest):
    # every document kind passes the schema self-check (exit 0, not 2) and
    # keeps its bytes
    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    out = tmp_path / "document.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n", "5", "--m", "3"),
        ("sweep", "--n-range", "3..5"),
        ("oracle", "--n-range", "3..3", "--m-max", "2", "--trials", "10"),
        ("pair", "--n", "7", "--expr", "(2*A - R).G_n"),
        ("pair", "--n", "3", "--expr", "2*A - R"),
    ],
    ids=["verify", "sweep", "oracle", "pair-pairing", "pair-class"],
)
def test_stdout_bytes_equal_out_bytes(tmp_path, capsysbinary, argv, fmt):
    out = tmp_path / "report"
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main([*argv, "--format", fmt]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_report_schema_digest_is_pinned():
    assert (
        hashlib.sha256(canonical_json(REPORT_SCHEMA).encode()).hexdigest()
        == "68f9b65ba3c8bece35725685d96185c55ca95478e9f56f155a93ec6d584dc186"
    )


def test_oracle_quick_run(capsys):
    code, out, err = run(
        capsys,
        "oracle",
        "--n-range",
        "3..7",
        "--m-max",
        "5",
        "--trials",
        "50",
        "--format",
        "json",
    )
    assert code == 0
    document = json.loads(out)
    assert document["schema"] == "oracle-run"
    assert document["failures_total"] == 0
    assert {r["suite"] for r in document["reports"]} == {
        "identity",
        "bilinearity",
        "forcing-order",
        "enumeration",
    }


def test_oracle_text_output(capsys):
    code, out, err = run(
        capsys, "oracle", "--n-range", "3..3", "--m-max", "2", "--trials", "10"
    )
    assert code == 0
    assert "total failures: 0" in out


@pytest.mark.parametrize(
    "flag, value", [("--trials", "-5"), ("--m-max", "-3"), ("--bound", "-1")]
)
def test_oracle_bad_numbers_are_usage_errors(tmp_path, capsys, flag, value):
    # --trials -5 used to write "trials": -5, --bound -1 to report four
    # FAILURES, and --m-max -3 to check no multiple
    target = tmp_path / "oracle.json"
    small = ["--n-range", "3..3", "--trials", "0", "--m-max", "1", "--bound", "2"]
    # the last occurrence of a flag wins
    code, out, err = run(
        capsys, "oracle", *small, flag, value, "--format", "json", "--out", str(target)
    )
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("dlv: error: ")
    assert not target.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "-5", "trials must be an integer >= 0, got -5"),
        ("--m-max", "-3", "m_max_per_n must be an integer >= 0, got -3"),
        ("--bound", "-1", "coeff_bound must be an integer >= 0, got -1"),
    ],
)
def test_oracle_bad_numbers_fail_before_any_suite(capsys, monkeypatch, flag, value, message):
    # --bound -1 used to fail only after the identity and bilinearity suites ran
    def never(*args, **kwargs):
        raise AssertionError("a suite ran before the oracle sizes were checked")

    suites = ("identity_suite", "bilinearity_suite", "forcing_order_check", "enumeration_check")
    for suite in suites:
        monkeypatch.setattr(f"dlv.oracle.{suite}", never)
    code, out, err = run(capsys, "oracle", flag, value, "--format", "json")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"dlv: error: {message}"


def test_oracle_grid_cap_fails_before_any_suite(capsys, monkeypatch):
    # --bound 500 used to fail only after the identity and bilinearity suites ran
    def never(*args, **kwargs):
        raise AssertionError("a suite ran before the grid cap was checked")

    for suite in ("identity_suite", "bilinearity_suite"):
        monkeypatch.setattr(f"dlv.oracle.{suite}", never)
    code, out, err = run(capsys, "oracle", "--bound", "464", "--format", "json")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        "dlv: error: grid of 100544625 points exceeds the cap of 100000000"
    )


def test_oracle_bound_below_the_forced_counts_is_clean(capsys):
    # --bound 3 used to report FAILURES: the grid cannot hold {F': 4, Gamma_n': 4}
    code, out, err = run(
        capsys, "oracle", "--n-range", "3..3", "--trials", "0", "--m-max", "0",
        "--bound", "3", "--format", "json",
    )
    assert code == 0
    reports = {r["suite"]: r for r in json.loads(out)["reports"]}
    assert reports["enumeration"]["failures"] == []


def test_oracle_empty_suites_are_valid(capsys):
    code, out, err = run(
        capsys, "oracle", "--n-range", "3..3", "--trials", "0", "--m-max", "0",
        "--format", "json",
    )
    assert code == 0
    reports = {r["suite"]: r for r in json.loads(out)["reports"]}
    assert reports["bilinearity"]["trials"] == 0
    assert reports["identity"]["trials"] == 7


def test_schema_self_check_env(capsys, monkeypatch):
    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["schema"] == "verification-report"


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "verify", "--n", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "Verified" in target.read_text()


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    # it used to end as "dlv: internal error: FileNotFoundError: ..." (exit 3)
    target = tmp_path / "missing-dir" / "report.json"
    code, out, err = run(capsys, "verify", "--n", "3", "--out", str(target))
    assert code == 1
    assert err.startswith(f"dlv: error: cannot write {target}: ")
    assert out == ""


def test_schema_violation_exits_two_and_names_the_path(capsys, monkeypatch):
    _tamper_instance(monkeypatch, 2)
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json")
    assert code == 2
    # the instances are checked just before they are written: the opening is out
    assert out == '{\n  "instances": '
    assert err.startswith("dlv: schema self-validation failed: $.instances[1].status: ")


def test_empty_out_path_is_a_usage_error(capsys, monkeypatch):
    # it used to write the report to stdout and exit 0
    def never(n):
        raise AssertionError("the tower was built before --out was checked")

    monkeypatch.setattr("dlv.cli.build_tower", never)
    code, out, err = run(capsys, "pair", "--n", "3", "--expr", "D.D", "--out", "")
    assert code == 1
    assert out == ""
    assert err == "dlv: error: cannot write : No such file or directory\n"


def test_schema_violation_in_text_mode_is_the_json_diagnostic(tmp_path, capsys, monkeypatch):
    # the self-check used to check nothing in text mode, which exited 0
    _tamper_instance(monkeypatch, 1)
    ends = [run(capsys, "verify", "--n", "3", "--format", fmt) for fmt in ("json", "text")]
    (json_code, json_out, json_err), (code, out, err) = ends
    assert (json_code, json_err) == (code, err)
    # the JSON opening is out before the first instance is checked; no text is
    assert (json_out, out) == ('{\n  "instances": ', "")
    assert code == 2
    assert err.startswith("dlv: schema self-validation failed: $.instances[0].status: ")
    target = tmp_path / "sweep.txt"
    code, out, err = run(capsys, "sweep", "--n-range", "3..5", "--out", str(target))
    assert code == 2
    assert err.splitlines()[-1].startswith(
        "dlv: schema self-validation failed: $.reports[0].instances[0].status: "
    )
    assert not target.exists()


def test_unwritable_out_path_is_reported_before_any_work(tmp_path, capsys, monkeypatch):
    # it used to run the whole sweep, progress lines included, and fail at the end
    def never(tower, m):
        raise AssertionError("verify ran before --out was checked")

    monkeypatch.setattr("dlv.pipeline.verify_instance", never)
    target = tmp_path / "missing-dir" / "sweep.txt"
    code, out, err = run(capsys, "sweep", "--n-range", "3..31", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"dlv: error: cannot write {target}: ")
    assert err.count("\n") == 1  # the diagnostic alone, no "[1/15] n=3"


def _tamper_instance(monkeypatch, m, n=None):
    """Turn on the schema self-check and give instance ``m`` (of the report
    of ``n``, or of every report) a status the schema does not allow."""
    import dlv.pipeline as pipeline_mod

    real = pipeline_mod.verify_instance

    def tampered(tower, m_):
        doc = real(tower, m_)
        if m_ == m and n in (None, tower.n):
            doc["status"] = "Maybe"
        return doc

    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    monkeypatch.setattr(pipeline_mod, "verify_instance", tampered)


def test_schema_violation_creates_no_out_file(tmp_path, capsys, monkeypatch):
    _tamper_instance(monkeypatch, 1)
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json", "--out", str(target))
    assert code == 2
    assert not target.exists()


def test_schema_violation_removes_an_existing_out_file(tmp_path, capsys, monkeypatch):
    # the instances are checked as they are written, so the file was begun
    _tamper_instance(monkeypatch, 1)
    target = tmp_path / "report.json"
    target.write_bytes(b"earlier report\n")
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json", "--out", str(target))
    assert code == 2
    assert not target.exists()


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_internal_error_while_streaming_leaves_no_out_file(tmp_path, capsys, monkeypatch, existed):
    # the summary is written after every instance, so part of the file is out
    monkeypatch.delenv("DLV_SCHEMA_CHECK", raising=False)
    monkeypatch.setattr("dlv.pipeline.report_summary", lambda *args: 0.5)
    target = tmp_path / "report.json"
    if existed:
        target.write_bytes(b"earlier report\n")
    code, out, err = run(capsys, "verify", "--n", "5", "--format", "json", "--out", str(target))
    assert code == 3
    assert err == "dlv: internal error: TypeError: Object of type float is not JSON serializable\n"
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, path",
    [
        (("verify", "--n", "5"), "$.summary"),
        (("sweep", "--n-range", "3..7"), "$.reports[1].summary"),
    ],
    ids=["verify", "sweep"],
)
def test_a_summary_is_checked_once_the_last_instance_is_out(
    tmp_path, capsys, monkeypatch, argv, path
):
    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    monkeypatch.setattr(
        "dlv.pipeline.report_summary", lambda n, *args: 0.5 if n == 5 else "fine"
    )
    target = tmp_path / "report.json"
    code, out, err = run(capsys, *argv, "--format", "json", "--out", str(target))
    assert code == 2
    assert err.splitlines()[-1] == (
        f"dlv: schema self-validation failed: {path}: 0.5 is not of type 'string'"
    )
    assert not target.exists()


def test_internal_error_while_streaming_keeps_an_out_link(tmp_path, capsys, monkeypatch):
    # only a regular file is removed: a link, like /dev/stdout, stays
    monkeypatch.setattr("dlv.pipeline.report_summary", lambda *args: 0.5)
    target = tmp_path / "report.json"
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json", "--out", str(link))
    assert code == 3
    assert link.is_symlink()


def test_failed_write_while_streaming_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    import errno

    import dlv.cli as cli_mod

    def disk_full(doc, fh):
        fh.write("{\n")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli_mod, "write_json", disk_full)
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json", "--out", str(target))
    assert code == 1
    assert err == f"dlv: error: cannot write {target}: No space left on device\n"
    assert not target.exists()


def test_new_out_file_gets_the_umask_permissions(tmp_path, capsys):
    import os
    import stat

    umask = os.umask(0)
    os.umask(umask)
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "pair", "--n", "3", "--expr", "A.A", "--out", str(target))
    assert code == 0
    assert target.read_text() == "8\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def test_schema_checker_fault_is_an_internal_error(capsys, monkeypatch):
    # a checker that cannot read the schema is a bug (3), not a bad document (2)
    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    monkeypatch.setattr("dlv.schema.REPORT_SCHEMA", {"maxLength": 3})
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json")
    assert code == 3
    assert err.startswith("dlv: internal error: ValueError: ")


def test_missing_subcommand_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 1


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--frobnicate")
    assert code == 1


def _fail_instance(monkeypatch, m, n=None):
    """Make instance ``m`` (of the report of ``n``, or of every report) ``Failed``."""
    import dlv.pipeline as pipeline_mod

    real = pipeline_mod.verify_instance

    def tampered(tower, m_):
        r = real(tower, m_)
        if m_ == m and n in (None, tower.n):
            r["status"] = "Failed"
        return r

    monkeypatch.setattr(pipeline_mod, "verify_instance", tampered)


def test_failed_instance_exits_two(capsys, monkeypatch):
    _fail_instance(monkeypatch, 1)
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 2


def test_text_says_why_an_instance_failed(capsys, monkeypatch):
    from dlv import ForcingTrace, Inconclusive

    def inconclusive(model, start):
        return ForcingTrace(start=start, runs=(), conclusion=Inconclusive("no forcing curve"))

    monkeypatch.setattr("dlv.pipeline.fixed_part_forcing", inconclusive)
    why = "blown-up-base forcing did not conclude a unique member"
    code, out, err = run(capsys, "verify", "--n", "3", "--m", "2")
    assert code == 2
    table, summary = out.split("  m=2 Failed: ")
    assert summary.startswith(f"{why}\nsummary: ")
    assert "Failed" in table  # the status column
    # the JSON carries the same details, in the chain and nowhere else
    code, out, err = run(capsys, "verify", "--n", "3", "--m", "2", "--format", "json")
    assert code == 2
    (instance,) = json.loads(out)["instances"]
    (failed,) = [a for a in instance["certificate_chain"] if a["rule"] == "internal-check-failed"]
    assert failed["values"]["details"] == [why]
    assert "m=2 Failed" not in out


def test_oracle_failure_exits_two(capsys, monkeypatch):
    from dlv import oracle
    from dlv.oracle import OracleReport

    monkeypatch.setattr(
        oracle,
        "identity_suite",
        lambda *a, **k: OracleReport("identity", 1, ("constructed mismatch",), 0),
    )
    code, out, err = run(
        capsys, "oracle", "--n-range", "3..3", "--m-max", "1", "--trials", "5"
    )
    assert code == 2
    assert "constructed mismatch" in out


def test_oracle_text_lists_each_failure(capsys, monkeypatch):
    from dlv import oracle
    from dlv.oracle import OracleReport

    failures = ("first mismatch", "second mismatch")
    monkeypatch.setattr(
        oracle, "identity_suite", lambda *a, **k: OracleReport("identity", 9, failures, 4)
    )
    code, out, err = run(
        capsys, "oracle", "--n-range", "3..3", "--m-max", "1", "--trials", "5"
    )
    assert code == 2
    lines = out.splitlines()
    assert lines[:3] == [
        "suite identity: 9 trials, 2 FAILURES (seed 4)",
        "  first mismatch",
        "  second mismatch",
    ]
    assert lines[3].startswith("suite bilinearity: 5 trials, ok ")
    assert lines[-1] == "total failures: 2"


@pytest.mark.parametrize(
    "error, code, line",
    [(InvalidModel, 1, "dlv: error: "), (RuntimeError, 3, "dlv: internal error: RuntimeError: ")],
    ids=["domain error", "internal error"],
)
def test_oracle_that_raises_in_a_child_ends_as_a_one_share_run(
    capsys, monkeypatch, error, code, line
):
    import os

    from dlv import oracle

    original = oracle._random_model

    def model_or_raise(rng, tag):
        if tag == "0:9":  # the last trial: a child's when there are shares
            raise error(f"broken trial {tag}")
        return original(rng, tag)

    monkeypatch.setattr(oracle, "_random_model", model_or_raise)
    argv = ("oracle", "--n-range", "3..3", "--m-max", "1", "--trials", "10")
    ends = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        ends.append(run(capsys, *argv))
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)
    assert ends[0] == ends[1]
    assert ends[0][:2] == (code, "")
    assert ends[0][2].splitlines()[-1] == f"{line}broken trial 0:9"


def test_failed_instance_aborts_sweep(capsys, monkeypatch):
    _fail_instance(monkeypatch, 1, n=5)
    code, out, err = run(capsys, "sweep", "--n-range", "3..9")
    assert code == 2
    assert "aborting sweep" in err
    assert "n=7" not in out  # n=7 and n=9 never ran


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("dlv.pipeline.verify_instance", broken)
    code, out, err = run(capsys, "verify", "--n", "5")
    assert code == 3
    assert err == "dlv: internal error: RuntimeError: boom\n"
    assert out == ""


def _verify_failing_at(monkeypatch, bad_n, error):
    """Make the first instance of ``bad_n`` raise ``error`` and record
    every n verified."""
    import dlv.pipeline as pipeline_mod

    real, seen = pipeline_mod.verify_instance, []

    def verify_instance(tower, m):
        if m == 1:
            seen.append(tower.n)
            if tower.n == bad_n:
                raise error
        return real(tower, m)

    monkeypatch.setattr(pipeline_mod, "verify_instance", verify_instance)
    return seen


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_internal_error_mid_sweep_leaves_no_out_file(tmp_path, capsys, monkeypatch, fmt):
    # the reports of n = 3 and 5 are written before n = 7 fails
    seen = _verify_failing_at(monkeypatch, 7, RuntimeError("boom"))
    target = tmp_path / "sweep"
    code, out, err = run(capsys, "sweep", "--n-range", "3..11", "--format", fmt, "--out", str(target))
    assert code == 3
    assert err.splitlines()[-1] == "dlv: internal error: RuntimeError: boom"
    assert seen == [3, 5, 7]
    assert out == ""
    assert not target.exists()


def test_internal_error_mid_sweep_leaves_stdout_partial(capsys, monkeypatch):
    _verify_failing_at(monkeypatch, 7, RuntimeError("boom"))
    code, out, err = run(capsys, "sweep", "--n-range", "3..11")
    assert code == 3
    assert "n=3" in out and "n=5" in out and "n=7" not in out


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_schema_violation_mid_sweep_leaves_no_out_file(tmp_path, capsys, monkeypatch, existed):
    _tamper_instance(monkeypatch, 2, n=7)
    seen = _verify_failing_at(monkeypatch, 9, AssertionError("n=9 ran after a violation"))
    target = tmp_path / "sweep.json"
    if existed:
        target.write_bytes(b"earlier report\n")
    code, out, err = run(
        capsys, "sweep", "--n-range", "3..9", "--format", "json", "--out", str(target)
    )
    assert code == 2
    assert err.splitlines()[-1].startswith(
        "dlv: schema self-validation failed: $.reports[2].instances[1].status: "
    )
    assert seen == [3, 5, 7]
    assert not target.exists()


def test_schema_violation_mid_sweep_names_the_path_of_the_whole_check(capsys, monkeypatch):
    # the streamed check and the whole-document check name the same path
    from dlv.errors import SchemaViolation
    from dlv.pipeline import sweep_to_dict, verify
    from dlv.schema import validate_document

    doc = sweep_to_dict([verify(n) for n in (3, 5, 7)])
    doc["reports"][2]["instances"][1]["status"] = "Maybe"
    with pytest.raises(SchemaViolation) as whole:
        validate_document(doc)
    _tamper_instance(monkeypatch, 2, n=7)
    code, out, err = run(capsys, "sweep", "--n-range", "3..7", "--format", "json")
    assert code == 2
    assert err.splitlines()[-1] == f"dlv: schema self-validation failed: {whole.value}"
    # stdout stays partial: the reports of n = 3 and 5 are out, and the
    # opening of n = 7's, whose instances are checked just before they are written
    whole_of_two = canonical_json(sweep_to_dict([verify(3), verify(5)]))
    opening = ',\n    {\n      "instances": '
    assert out == whole_of_two[: whole_of_two.index('\n  ],\n  "schema"')] + opening


def test_sweep_envelope_is_checked_before_the_first_n(capsys, monkeypatch):
    # it was never checked: a sweep-report with an extra field was written, exit 0
    import dlv.cli as cli_mod

    real = cli_mod.document

    def document(kind, /, **fields):
        if kind == "sweep-report":
            fields["extra"] = 1
        return real(kind, **fields)

    def never(tower, m):
        raise AssertionError("an n was verified before the sweep envelope was checked")

    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    monkeypatch.setattr(cli_mod, "document", document)
    monkeypatch.setattr("dlv.pipeline.verify_instance", never)
    code, out, err = run(capsys, "sweep", "--n-range", "3..5", "--format", "json")
    assert (code, out) == (2, "")
    # the message comes from the sweep-report's oneOf branch, the kind the document names
    assert err.splitlines()[-1] == (
        "dlv: schema self-validation failed: $: unexpected properties 'extra'"
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_clean_checked_sweep_constructs_no_schema_violation(capsys, monkeypatch, fmt):
    # the h0 oneOf used to raise and catch one for its unmatched branch: 48 for 3..9
    from dlv.errors import SchemaViolation

    built = []
    real_init = SchemaViolation.__init__

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    monkeypatch.setattr(SchemaViolation, "__init__", init)
    code, out, err = run(capsys, "sweep", "--n-range", "3..9", "--format", fmt)
    assert code == 0
    assert built == []


class _TrackedDict(dict):
    """A dict that a weak reference can watch."""


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_sweep_keeps_no_earlier_report_while_it_verifies(capsys, monkeypatch, fmt):
    # nor an earlier group of its own instances: n = 13 has three groups
    import dlv.pipeline as pipeline_mod
    from dlv.pipeline import m_threshold

    real_verify = pipeline_mod.verify_instance
    alive, kept = [], []  # weak references; the (n, m) whose group found one alive

    def verify_instance(tower, m):
        if (m - 1) % pipeline_mod._GROUP == 0 and any(ref() is not None for ref in alive):
            kept.append((tower.n, m))
        doc = _TrackedDict(real_verify(tower, m))
        alive.append(weakref.ref(doc))
        return doc

    monkeypatch.setattr(pipeline_mod, "verify_instance", verify_instance)
    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")  # the checker keeps nothing either
    code, out, err = run(capsys, "sweep", "--n-range", "3..13", "--format", fmt)
    assert code == 0
    assert m_threshold(13) + 1 > pipeline_mod._GROUP
    # one document per instance, written as JSON or rendered as text
    assert len(alive) == sum(m_threshold(n) + 1 for n in range(3, 14, 2))
    assert kept == []


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_follows_its_largest_n(tmp_path, capsys):
    # a sweep that kept every report until the end peaked at about 4.5 times
    # the peak of its largest n alone
    out = str(tmp_path / "report.json")
    one = _traced_peak(["verify", "--n", "31", "--format", "json", "--out", out])
    sweep = _traced_peak(["sweep", "--n-range", "3..31", "--format", "json", "--out", out])
    assert sweep < 2 * one, (sweep, one)


def test_verify_never_holds_its_whole_report(tmp_path, capsys):
    # it held every instance until the first byte went out, about 1.4 times
    # what the report retains
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        from test_pipeline import _retained
    finally:
        sys.path.pop(0)
    whole = _retained(61)
    out = str(tmp_path / "report.json")
    peak = _traced_peak(["verify", "--n", "61", "--format", "json", "--out", out])
    assert peak < whole / 3, (peak, whole)


def test_verified_reports_leave_no_tuples_on_the_free_lists(tmp_path, capsys, monkeypatch, retained):
    # tuples built from generators (forcing plans, runs, decompositions)
    # left about 520 KB on CPython's tuple free lists
    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    argv = ["sweep", "--n-range", "3..3", "--format", "json", "--out", str(tmp_path / "s.json")]
    assert main(argv) == 0  # first-use caches
    argv[2] = "5..31"
    codes = []
    kept = retained(lambda: codes.append(main(argv)))
    assert codes == [0]
    assert kept < 256 * 1024, kept


@pytest.mark.parametrize(
    "argv",
    [("verify", "--n", "31", "--format", "json"), ("sweep", "--n-range", "3..31", "--format", "json")],
    ids=["verify", "sweep"],
)
def test_closed_stdout_pipe_is_a_usage_error(argv):
    # it used to end as "dlv: internal error: BrokenPipeError: ..." (exit 3)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    child = subprocess.Popen(
        [sys.executable, "-c", "from dlv.cli import console_main; console_main()", *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.read(10).startswith(b"{")
    child.stdout.close()  # as `| head -c 10` does
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert err.splitlines()[-1] == "dlv: error: cannot write stdout: Broken pipe"
    assert "Exception ignored" not in err and "Traceback" not in err


def test_cold_start_imports_no_code_introspection():
    # importing `dataclasses` loaded the first five, about a fifth of a cold
    # set-up; only `dlv oracle` and `dlv pair` need the last two
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys; unwanted = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
        "'dlv.oracle', 'dlv.expr'}; "
        "import dlv; print(sorted(unwanted & set(sys.modules))); "
        "import dlv.cli; print(sorted(unwanted & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n[]\n", "")


def test_the_package_still_gives_its_oracle_and_expr_modules():
    # perfbench/tracing.py imports both this way to wrap the suites
    from dlv import ExprError, errors, expr, oracle

    assert (oracle.__name__, expr.__name__) == ("dlv.oracle", "dlv.expr")
    assert callable(oracle.identity_suite) and callable(expr.parse_expr)
    assert ExprError is errors.ExprError is expr.ExprError
