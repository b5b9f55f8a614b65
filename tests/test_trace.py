"""The benchmark's span tracer (perfbench/spans.py) finds compgap's public
callables by attribute name; these tests catch a rename or signature change
that would break `--trace 1` or leave a wrapper behind after a run."""

from pathlib import Path

import pytest

from compgap import attackers, constructions, game, ots
from compgap.base_problems import uniform_balanced_problem
from compgap.ecc import EccParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

C3_OTS = ots.OtsParams(hlen=4, slen=4)
C3_ECC = EccParams(k_sym=4, n_sym=10, bits_per_symbol=8)

CTORS = ("identity_attacker", "greedy_majority_attacker",
         "unbounded_c1_attacker", "bounded_c1_attacker",
         "unbounded_c3_attacker", "bounded_c3_attacker")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def _originals():
    return {"ots.verify": ots.verify,
            "ots.PreimageIndex.forge": ots.PreimageIndex.__dict__["forge"],
            "game.play_game": game.play_game,
            "constructions.verify": constructions.verify,
            **{name: getattr(attackers, name) for name in CTORS}}


def test_tracer_uninstall_restores_every_original(spans):
    before = _originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _originals()
    finally:
        tracer.uninstall()
    assert all(during[k] is not before[k] for k in before)
    after = _originals()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_c3_verify_and_forge_calls(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        prob = constructions.c3_problem(uniform_balanced_problem(32),
                                        C3_OTS, C3_ECC)
        h = constructions.classifier_c3(C3_OTS, C3_ECC)
        for atk in (attackers.unbounded_c3_attacker(C3_OTS, C3_ECC),
                    attackers.bounded_c3_attacker(C3_OTS, C3_ECC, 64)):
            for seed in range(6):
                game.play_game(prob, h, atk, C3_OTS.sig_bits, seed)
    finally:
        tracer.uninstall()
    calls = tracer.report(1.0)["calls"]
    assert calls["game.play"] == 12
    # one span per game's draw, through c3_problem's sampler closure
    assert calls["constructions.sample"] == 12
    assert calls["ots.verify"] > 0 and calls["ots.forge"] > 0
