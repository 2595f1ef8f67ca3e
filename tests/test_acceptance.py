"""Acceptance gate: every criterion at its stated (exact) tolerance.

Prints one pass/fail line per criterion; run with ``pytest -s`` to see
the lines for passing criteria too.
"""

import json
import time
from contextlib import contextmanager

import pytest

from dlv import UniqueMember, build_tower, fixed_part_forcing
from dlv.oracle import (
    bilinearity_suite,
    enumerate_decompositions,
    forcing_order_check,
    identity_suite,
)
from dlv.cli import main

HEADLINE_NS = list(range(3, 32, 2))


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({label}): FAIL")
        raise
    else:
        print(f"[ACCEPTANCE] criterion {number} ({label}): PASS")


@pytest.fixture(scope="module")
def headline_reports(tmp_path_factory):
    """Run `verify --n N --format json` through the real CLI for every
    odd n in 3..31, recording wall time per run."""
    outdir = tmp_path_factory.mktemp("headline")
    reports = {}
    for n in HEADLINE_NS:
        target = outdir / f"n{n}.json"
        started = time.perf_counter()
        code = main(["verify", "--n", str(n), "--format", "json", "--out", str(target)])
        elapsed = time.perf_counter() - started
        assert code == 0, f"verify --n {n} exited {code}"
        reports[n] = (json.loads(target.read_text()), elapsed)
    return reports


def test_criterion_1_headline_values(headline_reports):
    with criterion(1, "exact headline values for odd n in 3..31"):
        for n, (document, elapsed) in headline_reports.items():
            threshold = (n * n + 3) // 4
            instances = {inst["m"]: inst for inst in document["instances"]}
            assert set(instances) == set(range(1, threshold + 2))
            for m in range(1, threshold + 1):
                inst = instances[m]
                assert inst["status"] == "Verified", (n, m)
                assert inst["a_n_squared"] == 8
                assert inst["d_n_squared"] == 4
                assert inst["h0"] == 1
                rules = [app["rule"] for app in inst["certificate_chain"]]
                assert rules == [
                    "blowup-section-transfer",
                    "cover-section-split",
                    "noneffectivity-on-abelian",
                    "blowup-section-transfer",
                    "fixed-component-forcing",
                    "unique-member-section-count",
                ], (n, m)
                assert all(app["citation"] for app in inst["certificate_chain"])
            assert elapsed < 1.0, f"verify --n {n} took {elapsed:.3f}s (budget 1s)"


def test_criterion_2_threshold_sharpness(headline_reports):
    with criterion(2, "certificate fails exactly past the threshold"):
        for n, (document, _) in headline_reports.items():
            threshold = (n * n + 3) // 4
            boundary = [i for i in document["instances"] if i["m"] == threshold + 1]
            assert len(boundary) == 1
            inst = boundary[0]
            assert inst["status"] == "BeyondThreshold"
            assert inst["certificate_value"] == 4 * (threshold + 1 - 1) - n * n
            assert inst["certificate_value"] >= 0
            assert inst["h0"] == "unknown"
            beyond_count = sum(
                1 for i in document["instances"] if i["status"] == "BeyondThreshold"
            )
            assert beyond_count == 1


def test_criterion_3_forcing_closed_form():
    with criterion(3, "forcing decomposition and step pairings, m <= 50"):
        for n in (3, 5, 7):
            tower = build_tower(n)
            for m in range(1, 51):
                trace = fixed_part_forcing(tower.base_blowup, m * tower.classes["L"])
                assert isinstance(trace.conclusion, UniqueMember), (n, m)
                assert trace.conclusion.as_dict() == {"F'": m, "Gamma_n'": m}, (n, m)
                assert trace.steps[0].pairing_value == -2 * m, (n, m)
                assert trace.steps[1].pairing_value == -2 * m - 1, (n, m)


def test_criterion_4_enumeration_matches_forcing():
    with criterion(4, "exhaustive enumeration equals forcing, n=3, m <= 4"):
        started = time.perf_counter()
        tower = build_tower(3)
        for m in range(1, 5):
            target = m * tower.classes["L"]
            found = enumerate_decompositions(tower.base_blowup, target, 10)
            trace = fixed_part_forcing(tower.base_blowup, target)
            assert isinstance(trace.conclusion, UniqueMember)
            assert found == [trace.conclusion.as_dict()], m
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"enumeration took {elapsed:.3f}s (budget 1s)"


def test_criterion_5_identity_suite():
    with criterion(5, "identity suite, odd n <= 99, m <= 20"):
        started = time.perf_counter()
        report = identity_suite(list(range(3, 100, 2)), m_max_per_n=20, seed=0)
        elapsed = time.perf_counter() - started
        assert report.failures == ()
        assert elapsed < 10.0, f"identity suite took {elapsed:.3f}s (budget 10s)"


def test_criterion_6_property_suites():
    with criterion(6, "bilinearity, pullback, scaling, forcing order"):
        started = time.perf_counter()
        random_report = bilinearity_suite(trials=10_000, seed=0)
        assert random_report.failures == ()
        for n in (3, 5):
            tower = build_tower(n)
            order_report = forcing_order_check(
                tower.base_blowup, tower.classes["L"], m_cap=5
            )
            assert order_report.failures == ()
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"property suites took {elapsed:.3f}s (budget 10s)"


def test_criterion_7_byte_identical_sweeps(tmp_path):
    with criterion(7, "sweep 3..21 JSON is byte-identical across runs"):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        argv = ["sweep", "--n-range", "3..21", "--format", "json", "--seed", "0"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
