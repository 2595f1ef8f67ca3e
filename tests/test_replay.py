"""An independent replay of the reports the CLI writes.

Each instance document is read back with ``json.loads`` and checked
against the closed forms of the certificate chain, with plain integers
only: nothing here imports the lattice, the constructions or the forcing
engine.  The forcing record is replayed on the two curves it subtracts,
F' and Gamma_n' on the blown-up base, with F'^2 = Gamma_n'^2 = -3 and
F'.Gamma_n' = 1.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

VERIFIED_RULES = [
    "blowup-section-transfer",
    "cover-section-split",
    "noneffectivity-on-abelian",
    "blowup-section-transfer",
    "fixed-component-forcing",
    "unique-member-section-count",
]
BEYOND_RULES = [
    "blowup-section-transfer",
    "cover-section-split",
    "noneffectivity-witness-failed",
    "fixed-component-forcing",
    "unique-member-section-count",
]


def _document(*argv) -> dict:
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-m", "dlv.cli", *argv, "--format", "json"],
        env=env,
        capture_output=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def reports() -> list[tuple[dict, list[int]]]:
    """Each report the CLI writes for the replayed commands, with the m it
    must list."""
    sweep = _document("sweep", "--n-range", "3..31")
    assert sweep["schema"] == "sweep-report"
    assert [r["n"] for r in sweep["reports"]] == list(range(3, 32, 2))
    return [
        *[(report, _through_first_refusal(report["n"])) for report in sweep["reports"]],
        (_document("verify", "--n", "61"), _through_first_refusal(61)),
        (_document("verify", "--n", "9", "--m", "30"), [30]),
        (_document("verify", "--n", "9", "--m-max", "25"), list(range(1, 27))),
    ]


def _through_first_refusal(n: int) -> list[int]:
    """m = 1, 2, ... up to the first m whose witness pairing 4(m-1) - n^2
    is non-negative."""
    ms = [1]
    while 4 * (ms[-1] - 1) < n * n:
        ms.append(ms[-1] + 1)
    return ms


def replay_forcing(m: int) -> list[int]:
    """The pairing of every subtraction that forces m*F' + m*Gamma_n' to zero:
    the most negative pairing wins among the curves the residual contains,
    a tie goes to F'."""
    residual, pairings = [m, m], []
    while residual != [0, 0]:
        a, b = residual
        candidates = [(-3 * a + b, 0), (a - 3 * b, 1)]
        value, curve = min(c for c in candidates if residual[c[1]] > 0)
        assert value < 0, f"m={m}: no curve forces the residual {residual}"
        pairings.append(value)
        residual[curve] -= 1
    return pairings


def check_instance(n: int, inst: dict) -> None:
    m = inst["m"]
    certified = 4 * (m - 1) < n * n
    assert inst["status"] == ("Verified" if certified else "BeyondThreshold")
    assert inst["h0"] == (1 if certified else "unknown")
    assert inst["certificate_value"] == 4 * (m - 1) - n * n
    assert (inst["a_n_squared"], inst["d_n_squared"]) == (8, 4)

    chain = inst["certificate_chain"]
    assert [app["rule"] for app in chain] == (VERIFIED_RULES if certified else BEYOND_RULES)
    assert all(app["citation"] for app in chain)
    values = [app["values"] for app in chain]
    member = [m, 0, m]
    upstairs = member + [-2 * m] * 3
    transfers = [values[0]] + ([values[3]] if certified else [])
    surfaces = [
        f"blowup(double_cover(abelian_product(n={n}));E_1,E_2,E_3)",
        f"blowup(abelian_product(n={n});e_1,e_2,e_3)",
    ]
    for transfer, surface in zip(transfers, surfaces):
        assert transfer == {
            "surface": surface,
            "class": upstairs,
            "downstairs_class": member,
            "vanishing_orders": [2 * m] * 3,
        }
    assert values[1] == {"M": member, "M_minus_R": [m - 1, -1, m]}
    witness = {"witness": "Gamma_n", "pairing": 4 * (m - 1) - n * n}
    assert values[2] == ({**witness, "target": [m - 1, -1, m]} if certified else witness)

    decomposition = {"F'": m, "Gamma_n'": m}
    scope = {} if certified else {"scope": "Y'-only"}
    forcing, count = values[-2:]
    assert forcing == {
        "start": upstairs,
        "decomposition": decomposition,
        "step_pairings": replay_forcing(m),
        **scope,
    }
    assert count == {"h0": 1, "decomposition": decomposition, **scope}


def test_every_instance_replays_from_its_closed_forms(reports):
    replayed = 0
    for report, ms in reports:
        assert report["schema"] == "verification-report"
        assert [inst["m"] for inst in report["instances"]] == ms
        for inst in report["instances"]:
            check_instance(report["n"], inst)
            replayed += 1
    assert replayed == 1390 + 932 + 1 + 26


def test_the_replay_agrees_with_a_forcing_written_out_by_hand():
    # m = 2 from (2, 2): F' at -4 (a tie), Gamma_n' at -5, F' at -2 (a tie), Gamma_n' at -3
    assert replay_forcing(2) == [-4, -5, -2, -3]
    assert replay_forcing(1) == [-2, -3]
