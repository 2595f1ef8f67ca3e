import os
import select
import signal
import subprocess
import sys

import pytest

from dlv import (
    DivisorClass,
    InvalidModel,
    InvalidParameter,
    RegisteredCurve,
    SurfaceModel,
    UniqueMember,
    fixed_part_forcing,
    oracle,
)
from dlv.oracle import (
    bilinearity_suite,
    enumerate_decompositions,
    enumeration_check,
    forcing_order_check,
    identity_suite,
    oracle_report_to_dict,
)
from dlv.expr import ExprError
from dlv.schema import validate_document


def test_enumeration_of_doubled_multiple(tower_3):
    bb = tower_3.base_blowup
    found = enumerate_decompositions(bb, 2 * tower_3.classes["L"], 10)
    assert found == [{"F'": 2, "Gamma_n'": 2}]


def test_enumeration_of_single_curve(tower_3):
    bb = tower_3.base_blowup
    found = enumerate_decompositions(bb, bb.curve("F'").cls, 10)
    assert found == [{"F'": 1}]


def test_enumeration_misses_exceptional_class(tower_3):
    bb = tower_3.base_blowup
    e1 = bb.basis_class("e_1")
    assert enumerate_decompositions(bb, e1, 10) == []


def test_enumeration_grid_cap(tower_3):
    with pytest.raises(InvalidParameter, match=r"points exceeds the cap of 100000000"):
        enumerate_decompositions(tower_3.base_blowup, tower_3.classes["L"], 10**4)


def test_enumeration_agrees_with_forcing(tower_3):
    bb = tower_3.base_blowup
    for m in range(1, 5):
        target = m * tower_3.classes["L"]
        trace = fixed_part_forcing(bb, target)
        assert isinstance(trace.conclusion, UniqueMember)
        assert enumerate_decompositions(bb, target, 10) == [trace.conclusion.as_dict()]


def test_enumeration_check_suite(tower_3):
    report = enumeration_check(tower_3, m_cap=4, coeff_bound=10)
    assert not report.failures
    assert report.trials == 4


def test_enumeration_check_accepts_a_bound_below_the_forced_counts(tower_3):
    # m = 4 forces {F': 4, Gamma_n': 4}, which a grid bounded by 3 cannot hold
    assert not enumeration_check(tower_3, coeff_bound=3).failures


@pytest.mark.parametrize(
    "found, bound, failed",
    [([{"F'": 1}], 3, 4), ([{"F'": 1}], 10, 4), ([], 3, 3), ([], 10, 4)],
)
def test_enumeration_check_rejects_a_wrong_search(monkeypatch, tower_3, found, bound, failed):
    # only m = 4 may find nothing at bound 3
    monkeypatch.setattr(oracle, "enumerate_decompositions", lambda *args: found)
    assert len(enumeration_check(tower_3, coeff_bound=bound).failures) == failed


def test_identity_suite_small_range():
    report = identity_suite([3, 5, 7], m_max_per_n=10)
    assert report.failures == ()
    # 7 per-n identities + 2 per (n, m)
    assert report.trials == 3 * (7 + 2 * 10)


def test_forcing_order_independence(tower_3, tower_5):
    for tower in (tower_3, tower_5):
        report = forcing_order_check(tower.base_blowup, tower.classes["L"], m_cap=5)
        assert not report.failures
        # 3 registered curves -> 6 orders, 5 multiples
        assert report.trials == 30


def test_forcing_order_single_curve_registry():
    mid = "single"
    model = SurfaceModel(
        model_id=mid,
        basis=("a",),
        gram=((-2,),),
        curves=(RegisteredCurve("a", DivisorClass(mid, (1,))),),
    )
    report = forcing_order_check(model, DivisorClass(mid, (1,)), m_cap=3)
    assert not report.failures


def test_forcing_order_registry_cap(tower_3):
    model = tower_3.base_blowup
    for i in range(4):
        model = model.with_curve(f"extra_{i}", model.basis_class("e_1"))
    with pytest.raises(InvalidParameter, match=r"registry of 7 curves is too large"):
        forcing_order_check(model, tower_3.classes["L"])


def test_bilinearity_suite_is_clean_and_reproducible():
    first = bilinearity_suite(trials=300, seed=42)
    second = bilinearity_suite(trials=300, seed=42)
    assert not first.failures
    assert first == second
    assert first.seed == 42


@pytest.mark.parametrize("bad", [-1, 1.5, True, "10"], ids=repr)
@pytest.mark.parametrize("suite", ["bilinearity", "identity", "enumeration"])
def test_suite_sizes_must_be_non_negative_ints(tower_3, suite, bad):
    with pytest.raises(InvalidParameter):
        if suite == "bilinearity":
            bilinearity_suite(trials=bad)
        elif suite == "identity":
            identity_suite([3], m_max_per_n=bad)
        else:
            enumerate_decompositions(tower_3.base_blowup, tower_3.classes["L"], bad)


def test_empty_suites_are_valid(tower_3):
    assert bilinearity_suite(trials=0).trials == 0
    assert not identity_suite([3], m_max_per_n=0).failures
    bb = tower_3.base_blowup
    assert enumerate_decompositions(bb, DivisorClass(bb.model_id, (0,) * bb.size), 0) == [{}]


class _Int(int):
    pass


_NOT_INTS = [
    pytest.param(True, id="bool"),
    pytest.param(1.5, id="float"),
    pytest.param("3", id="str"),
    pytest.param(_Int(3), id="int-subclass"),
]


@pytest.fixture
def no_suite_work(monkeypatch):
    """Make every first step of a suite fail the test."""

    def work(*args, **kwargs):
        raise AssertionError("the suite began before its parameters were checked")

    for name in ("build_tower", "fixed_part_forcing", "_bilinearity_trials", "_fork_share"):
        monkeypatch.setattr(oracle, name, work)


@pytest.mark.parametrize("bad", _NOT_INTS)
@pytest.mark.parametrize("suite", ["identity", "bilinearity"])
def test_seeds_are_exact_ints_checked_before_any_work(no_suite_work, suite, bad):
    # a bool or float seed went into the report, which the schema rejects
    with pytest.raises(InvalidParameter, match="^seed must be an integer"):
        if suite == "identity":
            identity_suite([3], 1, seed=bad)
        else:
            bilinearity_suite(2, seed=bad)


@pytest.mark.parametrize("bad", [*_NOT_INTS, pytest.param(-1, id="negative")])
@pytest.mark.parametrize(
    "suite, name",
    [("forcing-order", "m_cap"), ("enumeration", "m_cap"), ("enumeration", "coeff_bound")],
)
def test_sizes_are_exact_ints_checked_before_any_work(tower_3, no_suite_work, suite, name, bad):
    # m_cap=True ran one trial, m_cap=-1 none, and m_cap=2.0 or "3" ended
    # in a bare TypeError
    with pytest.raises(InvalidParameter, match=f"^{name} must be an integer >= 0"):
        if suite == "forcing-order":
            forcing_order_check(tower_3.base_blowup, tower_3.classes["L"], m_cap=bad)
        else:
            enumeration_check(tower_3, **{name: bad})


def test_bilinearity_trials_leave_no_tuples_on_the_free_lists(retained):
    # tuples built from generators left CPython's tuple free lists for sizes
    # 1 to 8 at their cap of 2,000 each: about 1,200 KB retained
    assert oracle._bilinearity_trials(1, 0, 20) == []  # first-use caches
    failures = []
    kept = retained(lambda: failures.extend(oracle._bilinearity_trials(1, 20, 2020)))
    assert failures == []
    assert kept < 64 * 1024, kept


def test_oracle_report_serialization():
    report = identity_suite([3], m_max_per_n=2)
    document = oracle_report_to_dict(report)
    validate_document(document)
    assert document["suite"] == "identity"
    assert document["failures"] == []


def test_identity_single_checks(tower_5, tower_7):
    # pipeline route vs closed form, two hand-evaluated spots
    base7 = tower_7.base
    target = 2 * tower_7.classes["A"] - tower_7.classes["R"]
    assert base7.pair(target, tower_7.classes["G_n"]) == 4 * 1 - 49  # == -45
    bb5 = tower_5.base_blowup
    residual = 3 * tower_5.classes["L"] - bb5.curve("F'").cls
    assert bb5.pair(residual, bb5.curve("Gamma_n'").cls) == -2 * 3 - 1  # == -7


# -- the bilinearity suite split over forked shares --------------------------


@pytest.fixture
def cpus(monkeypatch):
    """Pretend this process may use ``k`` CPUs; after the test, no child of
    the suite is left running or unreaped."""

    def pretend(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    yield pretend
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _trial_of(failure: str) -> int:
    return int(failure.split(":")[0].removeprefix("trial "))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bilinearity_report_does_not_depend_on_the_split(monkeypatch, cpus, k):
    original = SurfaceModel.pair
    # off by one on every model of size 3: fails trials all through the range
    monkeypatch.setattr(
        SurfaceModel, "pair", lambda self, d1, d2: original(self, d1, d2) + (self.size == 3)
    )
    cpus(1)
    reference = bilinearity_suite(trials=60, seed=3)
    cpus(k)
    report = bilinearity_suite(trials=60, seed=3)
    assert report == reference
    trials = [_trial_of(f) for f in report.failures]
    assert trials == sorted(trials)
    for share in range(3):  # every share of the 3-way split fails some trial
        assert any(20 * share <= t < 20 * (share + 1) for t in trials)


@pytest.mark.parametrize(
    "raising, first",
    [({59}, 59), ({0, 30, 59}, 0), ({30, 59}, 30), (set(range(60)), 0)],
    ids=["last share", "every share", "two children", "every trial"],
)
@pytest.mark.parametrize("k", [2, 3])
def test_the_first_share_to_raise_is_re_raised(monkeypatch, cpus, k, raising, first):
    original = oracle._random_model

    def model_or_raise(rng, tag):
        if int(tag.split(":")[1]) in raising:
            raise InvalidModel(f"broken trial {tag}")
        return original(rng, tag)

    monkeypatch.setattr(oracle, "_random_model", model_or_raise)
    cpus(k)
    # a share stops at its first raising trial; the lowest raising share wins
    with pytest.raises(InvalidModel, match=rf"^broken trial 3:{first}$"):
        bilinearity_suite(trials=60, seed=3)


def test_the_share_of_a_child_that_dies_is_run_here(monkeypatch, cpus):
    # such a child (OOM killer, SIGKILL) used to end the run in ChildProcessError
    parent, original = os.getpid(), oracle._random_model

    def model_or_exit(rng, tag):
        if tag == "3:59" and os.getpid() != parent:
            os._exit(7)
        return original(rng, tag)

    monkeypatch.setattr(oracle, "_random_model", model_or_exit)
    cpus(1)
    reference = bilinearity_suite(trials=60, seed=3)
    cpus(2)
    assert bilinearity_suite(trials=60, seed=3) == reference


def test_a_share_raises_its_exception_with_its_own_type(monkeypatch, cpus):
    # ExprError takes a position, so it did not survive a pickle round trip
    original = oracle._random_model

    def model_or_raise(rng, tag):
        if tag == "3:59":
            raise ExprError("broken trial", 3)
        return original(rng, tag)

    monkeypatch.setattr(oracle, "_random_model", model_or_raise)
    cpus(2)
    with pytest.raises(ExprError, match=r"^broken trial \(at offset 3\)$"):
        bilinearity_suite(trials=60, seed=3)


@pytest.mark.parametrize(
    "trials, k", [(0, 4), (1, 4), (10, None)], ids=["no trial", "one trial", "no affinity call"]
)
def test_one_share_forks_nothing(monkeypatch, cpus, trials, k):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if k is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        cpus(k)
    assert bilinearity_suite(trials=trials).trials == trials


def test_a_split_never_has_more_shares_than_trials(monkeypatch, cpus):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    cpus(8)
    assert not bilinearity_suite(trials=3, seed=1).failures
    assert len(forks) == 2


def test_a_share_whose_parent_is_gone_stops():
    """A share is forked by a process that is then killed and cannot reap
    it; the share must stop (gone or a zombie) rather than run its trials.
    The share inherits the write end of a pipe, so it has stopped once
    every writer is gone and the read end sees end-of-file."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    read_fd, write_fd = os.pipe()
    code = (
        "import time; from dlv.oracle import _fork_share; "
        "pid = _fork_share(1, 0, 10**9); print(pid, flush=True); time.sleep(60)"
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        pass_fds=(write_fd,),
    )
    os.close(write_fd)
    share = None
    try:
        share = int(parent.stdout.readline())
        parent.kill()
        parent.wait()
        assert select.select([read_fd], [], [], 2.0)[0], "the share is still running"
        assert os.read(read_fd, 1) == b""
        share = None
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        os.close(read_fd)
        if share is not None:  # a share left running: end it here
            os.kill(share, signal.SIGKILL)
