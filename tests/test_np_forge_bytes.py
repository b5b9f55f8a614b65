"""Pins every byte `np-forge` writes: results.csv, transcript.log,
manifest.txt and each .cnf, by SHA-256, at fixed seeds.  A change to the
circuit builder, the CNF encoders, the samplers or the solver that moves a
clause, a hint comment or a verdict fails here.  Also runs the inputs that
used to hang the solver, and checks how an undecided bundle is reported."""

import hashlib

import pytest

from compgap import solver
from compgap.cli import main

# (config lines, seed) -> {file name: sha256 of its bytes}
PINNED_RUNS = [
    ("forge.stage = s1; forge.count = 5", 42, {
        "manifest.txt":
            "ac872fed587e869c108a344a35fd86a82b6fe036970979b2ca3d524fefabb226",
        "results.csv":
            "5e89fe32da5b49882cf5055fee91e40754150fc6f4b46d9131ed8f492c181351",
        "s1_0000.cnf":
            "28ecb11b00ddf6aaa200ad6d014700209ea77c7ef90641f6e8ca3ef71a908ab8",
        "s1_0001.cnf":
            "2b86ca16967eaa6072b011bb850b3d6afa27d64e5dbb336c33987d37d7f3c5d9",
        "s1_0002.cnf":
            "8d35277ce845f275d5af9b600f43bc98059eb3e1c4493aa4f6c66cda9e49efb2",
        "s1_0003.cnf":
            "63c00bb61be20d6204cca7b6b6a6463aec202571d283be2f5398f35ff776c911",
        "s1_0004.cnf":
            "af01f30532487d973f518c3a0ad42d8c469a36aed1d4761d56db0e6a897dac79",
        "transcript.log":
            "d02b3f0b9a2946b67b6d08ffffdd18039064a7678dc6e90a1e8633e10faab7ea",
    }),
    ("forge.stage = s2; forge.count = 2", 42, {
        "manifest.txt":
            "1e4c36aeff8409fb047d5bfc3627065d6cdc16d89875f35b453557dd73c43968",
        "results.csv":
            "244640926632507384464a9c08df0d2f83216dbe761d2375246830ce7e8c23cb",
        "s2_0000.cnf":
            "340c412cb97dd38de817ba9a1d192c4d55d8e325cd107cc1a5c3d12a3b28d901",
        "s2_0001.cnf":
            "fdba7a15b2d25a45afad7d1c6c32a41963a5c9e3659caf7cced16a9c19610cf1",
        "transcript.log":
            "143f4eb847e2abd0c92183e127abf0761ba52b019edece29b2c5d3cdc2798c94",
    }),
    ("forge.stage = s2; forge.k = 2; forge.tau = 1; forge.count = 3", 42, {
        "manifest.txt":
            "ec17bff31b2b008ac14bfe439dbd2c0a6c54d1cf8bbf0551209ed88ddb76a813",
        "results.csv":
            "b8a7fb0944195374db2d1cb911f3df3fe0308ffbc072c6ee67f00137831a7b78",
        "s2_0000.cnf":
            "1b98669a44abba37c11b1d085387cf875c1162a9c91c04225df2a2a4f9472e1f",
        "s2_0001.cnf":
            "93fc8fc5f94b473db9209dcade6a1e83cb1ea2836e1f3ba84a5aa801181088a4",
        "s2_0002.cnf":
            "f694564e867402eeedf53ce3c841e00313f6f21c1bc3c3b5fec8113b4397dd38",
        "transcript.log":
            "710d5cfd6dda72e86a1041cd524344642cbaf0304fcdbc8afafb9cf6457d4f0e",
    }),
    ("forge.stage = s; forge.k = 8; forge.reps = 2; forge.count = 2", 42, {
        "manifest.txt":
            "7bf96d9844b7ffbb6daadfcc4958ce3e9dfb777e7d1b89d1115db74245b4b019",
        "results.csv":
            "0523e82159666f547134926fd1a76cc96fa4cc5f1954180b865a8f2273342536",
        "s_0000.cnf":
            "24cef199b0d4e2844b4c93d7a74a00c824c51e43a4e31311fbf41103b16ed0e3",
        "s_0001.cnf":
            "104adccbb54ee6049246593850deeb3a305c2a0894d7add4a20873c8e42f9ab5",
        "transcript.log":
            "143f4eb847e2abd0c92183e127abf0761ba52b019edece29b2c5d3cdc2798c94",
    }),
    # three UNSAT bundles; pinned from the DPLL solver this row outlived,
    # which took 48 s on it
    ("forge.stage = s; forge.k = 2; forge.tau = 1; forge.reps = 2; "
     "forge.count = 3", 2, {
        "manifest.txt":
            "e8a49c6a4e9f396c8ccdd6e4065dbb589ac0ce811fe354846be55ebd2521434b",
        "results.csv":
            "414d80a97c8fd5c88eac4c9475a24d549e58a7dca90489130f0feb8c9f50a1a4",
        "s_0000.cnf":
            "434217f235475e474911f16cfb8cd9827c7804106e2740c95076c4d27ac8c373",
        "s_0001.cnf":
            "3345d05b3ae7ea5acaa16bfa443465c2c508b7a87300c762bf4bb648f202444b",
        "s_0002.cnf":
            "b95e6c6f5faded4017d0a93e6e99b6391fd427ba6293d7459909b1f4a032686e",
        "transcript.log":
            "27161c652387981c8306a860755b17a9517f034c12294f88f42da35e6e210aeb",
    }),
]

# inputs on which the DPLL solver ran from 13 s to past 10 minutes, with
# the verdict of each bundle (which the greedy base game confirms); the
# fourth such input, stage s at k=2, tau=1, reps=2, count=3 and seed 2, is
# the last PINNED_RUNS row, whose transcript pins its three UNSAT verdicts
HANG_RUNS = [
    ("forge.stage = s; forge.k = 6; forge.count = 10", 42,
     ["sat"] * 8 + ["unsat", "sat"]),
    ("forge.stage = s2; forge.k = 2; forge.count = 6", 2,
     ["sat"] * 5 + ["unsat"]),
    ("forge.stage = s; forge.k = 2; forge.tau = 1; forge.reps = 2; "
     "forge.count = 3", 3, ["unsat", "sat", "unsat"]),
]


def _run(tmp_path, lines, seed):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(p + "\n" for p in lines.split("; ")))
    out = tmp_path / "o"
    assert main(["np-forge", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)]) == 0
    return out


def _statuses(out):
    return [line.split("status=")[1]
            for line in (out / "transcript.log").read_text().splitlines()]


@pytest.mark.parametrize("lines,seed,want", PINNED_RUNS)
def test_np_forge_writes_pinned_bytes(tmp_path, lines, seed, want):
    out = _run(tmp_path, lines, seed)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())} == want


@pytest.mark.parametrize("lines,seed,want", HANG_RUNS)
def test_np_forge_decides_the_recorded_hangs(tmp_path, lines, seed, want):
    assert _statuses(_run(tmp_path, lines, seed)) == want


def test_np_forge_reports_unknown_apart_from_unsat(tmp_path, monkeypatch):
    # with no conflicts to spend, every bundle of this run stays undecided
    monkeypatch.setattr(solver, "DEFAULT_CONFLICT_BUDGET", 0)
    out = _run(tmp_path, HANG_RUNS[2][0], 3)
    assert _statuses(out) == ["unknown"] * 3
    row = (out / "results.csv").read_text().splitlines()[1]
    assert row.startswith("np-forge,stage=s d=11 b=2 k=2 tau=1.000000 "
                          "witnesses=0 unknown=3,0.000000,")
