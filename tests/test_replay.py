"""An independent replay of the reports the CLI writes.

Each instance document is read back with ``json.loads`` and checked
against values derived here, with plain integers only, from the declared
intersection numbers on the basis (F, G, Gamma_n) of the abelian product:
F^2 = G^2 = Gamma_n^2 = 0, F.G = 1, F.Gamma_n = 4 and G.Gamma_n = n^2.
The double cover doubles that Gram matrix, and a blow-up at three points
appends three exceptional classes with -1 on the diagonal, orthogonal to
everything else.  Nothing here imports the lattice, the constructions or
the forcing engine.  The forcing record is replayed on the two curves it
subtracts, F' and Gamma_n' on the blown-up base, whose pairings are
computed from the blown-up Gram.
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
    """m = 1, 2, ... up to the first m whose witness pairing is
    non-negative."""
    ms = [1]
    while witness_pairing(n, ms[-1]) < 0:
        ms.append(ms[-1] + 1)
    return ms


F, G, GAMMA = [1, 0, 0], [0, 1, 0], [0, 0, 1]
A = [f + g for f, g in zip(F, GAMMA)]  # the verified member F + Gamma_n
R = [f + g for f, g in zip(F, G)]  # half the branch class of the cover


def base_gram(n: int) -> list[list[int]]:
    return [[0, 1, 4], [1, 0, n * n], [4, n * n, 0]]


def doubled(gram: list[list[int]]) -> list[list[int]]:
    return [[2 * x for x in row] for row in gram]


def blown_up(gram: list[list[int]]) -> list[list[int]]:
    """The Gram of the blow-up at three points."""
    size = len(gram)
    exceptional = [[0] * (size + i) + [-1] + [0] * (2 - i) for i in range(3)]
    return [row + [0, 0, 0] for row in gram] + exceptional


def pair(gram: list[list[int]], a: list[int], b: list[int]) -> int:
    return sum(x * gram[i][j] * y for i, x in enumerate(a) for j, y in enumerate(b))


def strict(d: list[int], multiplicity: int) -> list[int]:
    """The strict transform of ``d`` through three blown-up points, at each
    of which it has ``multiplicity``."""
    return d + [-multiplicity] * 3


def witness_pairing(n: int, m: int) -> int:
    """The target M - R, with M = m*A, paired with Gamma_n on the base."""
    return pair(base_gram(n), [m * a - r for a, r in zip(A, R)], GAMMA)


def curve_gram(n: int) -> list[list[int]]:
    """The pairings of F' and Gamma_n' on the blown-up base; F and Gamma_n
    cross transversely at each blown-up point."""
    curves = [strict(F, 1), strict(GAMMA, 1)]
    gram = blown_up(base_gram(n))
    return [[pair(gram, a, b) for b in curves] for a in curves]


def replay_forcing(m: int, gram: list[list[int]]) -> list[int]:
    """The pairing of every subtraction that forces m*F' + m*Gamma_n' to zero,
    with ``gram`` the pairings of F' and Gamma_n': the most negative pairing
    wins among the curves the residual contains, a tie goes to F'."""
    residual, pairings = [m, m], []
    while residual != [0, 0]:
        candidates = [(sum(r * row[c] for r, row in zip(residual, gram)), c) for c in (0, 1)]
        value, curve = min(c for c in candidates if residual[c[1]] > 0)
        assert value < 0, f"m={m}: no curve forces the residual {residual}"
        pairings.append(value)
        residual[curve] -= 1
    return pairings


def check_instance(n: int, inst: dict) -> None:
    m = inst["m"]
    pairing = witness_pairing(n, m)
    certified = pairing < 0
    assert inst["status"] == ("Verified" if certified else "BeyondThreshold")
    assert inst["h0"] == (1 if certified else "unknown")
    assert inst["certificate_value"] == pairing
    # A has multiplicity 2 at each blown-up point: F and Gamma_n cross there
    # downstairs, and A's pullback has a node at each chosen preimage
    d_class = strict(A, 2)
    assert inst["a_n_squared"] == pair(base_gram(n), A, A)
    assert inst["d_n_squared"] == pair(blown_up(doubled(base_gram(n))), d_class, d_class)

    chain = inst["certificate_chain"]
    assert [app["rule"] for app in chain] == (VERIFIED_RULES if certified else BEYOND_RULES)
    assert all(app["citation"] for app in chain)
    values = [app["values"] for app in chain]
    member = [m * a for a in A]
    upstairs = [m * d for d in d_class]
    transfers = [values[0]] + ([values[3]] if certified else [])
    surfaces = [
        f"blowup(double_cover(abelian_product(n={n}));E_1,E_2,E_3)",
        f"blowup(abelian_product(n={n});e_1,e_2,e_3)",
    ]
    for transfer, surface in zip(transfers, surfaces):
        orders = transfer["vanishing_orders"]
        assert transfer["class"] == transfer["downstairs_class"] + [-k for k in orders]
        assert transfer == {
            "surface": surface,
            "class": upstairs,
            "downstairs_class": member,
            "vanishing_orders": [2 * m] * 3,
        }
    target = [x - r for x, r in zip(member, R)]
    assert values[1] == {"M": member, "M_minus_R": target}
    witness = {"witness": "Gamma_n", "pairing": pairing}
    assert values[2] == ({**witness, "target": target} if certified else witness)

    decomposition = {"F'": m, "Gamma_n'": m}
    summed = [m * f + m * g for f, g in zip(strict(F, 1), strict(GAMMA, 1))]
    assert summed == upstairs  # the decomposition adds up to the start
    scope = {} if certified else {"scope": "Y'-only"}
    forcing, count = values[-2:]
    assert forcing == {
        "start": upstairs,
        "decomposition": decomposition,
        "step_pairings": replay_forcing(m, curve_gram(n)),
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
    # F'^2 = Gamma_n'^2 = 0 - 3 and F'.Gamma_n' = 4 - 3, for every n
    gram = curve_gram(3)
    assert gram == curve_gram(61) == [[-3, 1], [1, -3]]
    # m = 2 from (2, 2): F' at -4 (a tie), Gamma_n' at -5, F' at -2 (a tie), Gamma_n' at -3
    assert replay_forcing(2, gram) == [-4, -5, -2, -3]
    assert replay_forcing(1, gram) == [-2, -3]


def test_the_derived_values_match_their_closed_forms():
    for n in (3, 9, 61):
        assert pair(base_gram(n), A, A) == 8
        assert pair(blown_up(doubled(base_gram(n))), strict(A, 2), strict(A, 2)) == 4
        for m in (1, 2, 30):
            assert witness_pairing(n, m) == 4 * (m - 1) - n * n
