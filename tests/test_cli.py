import hashlib
import json

import pytest

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
    assert err == "[1/2] n=3\n[2/2] n=5\n"
    assert [r["n"] for r in json.loads(out)["reports"]] == [3, 5]


def test_sweep_bad_range(capsys):
    for bad in ("4..6", "5..3", "3..", "x..y", "1..3"):
        code, out, err = run(capsys, "sweep", "--n-range", bad)
        assert code == 1


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
        ("3..31", "05599e51b38da4a65e094de654ce12becf665ebf30041455f16a37472467fde1"),
    ]:
        assert main(["sweep", "--n-range", n_range, "--format", "json", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, n_range


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
        monkeypatch.setattr(f"dlv.cli.{suite}", never)
    code, out, err = run(capsys, "oracle", flag, value, "--format", "json")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"dlv: error: {message}"


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
    import dlv.cli as cli_mod

    real = cli_mod.report_to_dict

    def tampered(report):
        doc = real(report)
        doc["instances"][1]["status"] = "Maybe"
        return doc

    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    monkeypatch.setattr(cli_mod, "report_to_dict", tampered)
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("dlv: schema self-validation failed: $.instances[1].status: ")


def test_unwritable_out_path_is_reported_before_any_work(tmp_path, capsys, monkeypatch):
    # it used to run the whole sweep, progress lines included, and fail at the end
    import dlv.cli as cli_mod

    def never(n, m_max=None):
        raise AssertionError("verify ran before --out was checked")

    monkeypatch.setattr(cli_mod, "verify", never)
    target = tmp_path / "missing-dir" / "sweep.txt"
    code, out, err = run(capsys, "sweep", "--n-range", "3..31", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"dlv: error: cannot write {target}: ")
    assert err.count("\n") == 1  # the diagnostic alone, no "[1/15] n=3"


def _tamper_reports(monkeypatch):
    import dlv.cli as cli_mod

    real = cli_mod.report_to_dict

    def tampered(report):
        doc = real(report)
        doc["instances"][0]["status"] = "Maybe"
        return doc

    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    monkeypatch.setattr(cli_mod, "report_to_dict", tampered)


def test_schema_violation_creates_no_out_file(tmp_path, capsys, monkeypatch):
    _tamper_reports(monkeypatch)
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json", "--out", str(target))
    assert code == 2
    assert not target.exists()


def test_schema_violation_keeps_existing_out_bytes(tmp_path, capsys, monkeypatch):
    _tamper_reports(monkeypatch)
    target = tmp_path / "report.json"
    target.write_bytes(b"earlier report\n")
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json", "--out", str(target))
    assert code == 2
    assert target.read_bytes() == b"earlier report\n"


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_internal_error_while_streaming_leaves_no_out_file(tmp_path, capsys, monkeypatch, existed):
    # the summary is written after every instance, so part of the file is out
    import dlv.cli as cli_mod

    real = cli_mod.report_to_dict

    def with_a_float(report):
        return {**real(report), "summary": 0.5}

    monkeypatch.delenv("DLV_SCHEMA_CHECK", raising=False)
    monkeypatch.setattr(cli_mod, "report_to_dict", with_a_float)
    target = tmp_path / "report.json"
    if existed:
        target.write_bytes(b"earlier report\n")
    code, out, err = run(capsys, "verify", "--n", "5", "--format", "json", "--out", str(target))
    assert code == 3
    assert err == "dlv: internal error: TypeError: Object of type float is not JSON serializable\n"
    assert out == ""
    assert not target.exists()


def test_internal_error_while_streaming_keeps_an_out_link(tmp_path, capsys, monkeypatch):
    # only a regular file is removed: a link, like /dev/stdout, stays
    import dlv.cli as cli_mod

    real = cli_mod.report_to_dict
    monkeypatch.setattr(cli_mod, "report_to_dict", lambda r: {**real(r), "summary": 0.5})
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


def test_failed_instance_exits_two(capsys, monkeypatch):
    import dataclasses

    import dlv.cli as cli_mod

    real = cli_mod.verify

    def tampered(n, m_max=None):
        report = real(n, m_max=m_max)
        bad = dataclasses.replace(report.instances[0], status="Failed")
        return dataclasses.replace(report, instances=(bad,) + report.instances[1:])

    monkeypatch.setattr(cli_mod, "verify", tampered)
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 2


def test_oracle_failure_exits_two(capsys, monkeypatch):
    import dlv.cli as cli_mod
    from dlv import OracleReport

    monkeypatch.setattr(
        cli_mod,
        "identity_suite",
        lambda *a, **k: OracleReport("identity", 1, ("constructed mismatch",), 0),
    )
    code, out, err = run(
        capsys, "oracle", "--n-range", "3..3", "--m-max", "1", "--trials", "5"
    )
    assert code == 2
    assert "constructed mismatch" in out


def test_failed_instance_aborts_sweep(capsys, monkeypatch):
    import dataclasses

    import dlv.cli as cli_mod

    real = cli_mod.verify

    def tampered(n, m_max=None):
        report = real(n, m_max=m_max)
        if n == 5:
            bad = dataclasses.replace(report.instances[0], status="Failed")
            report = dataclasses.replace(report, instances=(bad,) + report.instances[1:])
        return report

    monkeypatch.setattr(cli_mod, "verify", tampered)
    code, out, err = run(capsys, "sweep", "--n-range", "3..9")
    assert code == 2
    assert "aborting sweep" in err
    assert "n=7" not in out  # n=7 and n=9 never ran


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("dlv.cli.verify", broken)
    code, out, err = run(capsys, "verify", "--n", "5")
    assert code == 3
    assert err == "dlv: internal error: RuntimeError: boom\n"
    assert out == ""
