"""Pins results.csv and transcript.log by SHA-256 for every game command
and every attacker at seeds 42 and 7, plus `risk` and `oracle-check`'s
stdout.  A change that moves an rng draw, a hash charge or a verdict of any
attacker fails here; one meant to move them edits this table and says which
bytes moved and why.

Beside the default config, small OTS sets let the bounded forgers win some
games and give up on others, on both hash paths (slen <= 16 is read from
a table, longer fields are mixed) and with guesses of one to four 32-bit
words."""

import contextlib
import hashlib
import io
import re
import tempfile
from functools import cache
from pathlib import Path

import pytest

from compgap.cli import main
from compgap.game import Reason

TRIALS = 200

# bounded_c1 at 8- and 17-bit preimages, 24 queries: it forges some flips
# and runs out on others
C1_SLEN8 = ("ots.hlen = 4; ots.slen = 8; ecc.bits_per_symbol = 8; "
            "attacker.query_budget = 24")
C1_SLEN17 = ("ots.hlen = 4; ots.slen = 17; ecc.bits_per_symbol = 8; "
             "attacker.query_budget = 24")
# 40-bit guesses, two words each
C1_SLEN40 = ("attacker.name = bounded_c1; ots.hlen = 4; ots.slen = 40; "
             "ecc.bits_per_symbol = 16; attacker.query_budget = 24")
# 34-bit guesses; and 120-bit ones, whose field 0 spans three words
C3_SLEN17 = ("c3.hlen = 2; c3.slen = 17; c3.bits_per_symbol = 8; "
             "c3.query_budget = 24")
C3_SLEN60 = ("attacker.name = bounded_c3; c3.hlen = 2; c3.slen = 60; "
             "c3.bits_per_symbol = 8; c3.query_budget = 24")

# (command, config lines, seed) -> {output: sha256 of its bytes}
PINNED_BYTES = [
    ("risk", "", 42, {
        "results.csv":
            "7563e77a30759f8ac986a7a27c9fb4194a45a838bfe209e806da5c49cbadcef8",
        "transcript.log":
            "b5fe20b2f6a1dc2e3af557a39aed7994c5747f028638dbcb6e9201df0212c3a3",
    }),
    ("risk", "", 7, {
        "results.csv":
            "8e4ffc48eebc87132a9e8db442ac2da3c96378ecae46815c5e9378c0ecf50545",
        "transcript.log":
            "1a0d0aec3a78d0514abe8c3a490d441153640ee840d3c661b9c39588c8e86d74",
    }),
    ("oracle-check", "", 42, {
        "stdout":
            "c3e17fa888f1611244d9a8780b5f2a457bb5f9bc74ae4244ead6ca49adf6f1eb",
    }),
    ("separation", "", 42, {
        "results.csv":
            "4a8f5a35e838cba13d546ef18ef8b64154f18bfb79f5de9bce40f5c135755b64",
        "transcript.log":
            "6019044cc32dcb773f7693af6967a3f94dddfc74a2a517b973fd30eb18cb69c0",
    }),
    ("separation", "", 7, {
        "results.csv":
            "6bcd3fc11eea678b3d20627e4ce53a013ef4a44fea9eef23f1b1c7db6bcdb257",
        "transcript.log":
            "4b9c62454f3791ca42aee1c95405ebfa1ef85004e68d8506c01f333c38ff3e75",
    }),
    ("c3", "", 42, {
        "results.csv":
            "552376001dff2b99d8e6608e59f3bd4eb9a8ee001d583a7386a3db4d4724bd3b",
        "transcript.log":
            "5955f6f78dbaa74425547b5799b379490e2108ccef76ef31c3e3852f45e6a280",
    }),
    ("c3", "", 7, {
        "results.csv":
            "e3820edb76474f4c4c7e53f5a172ce9be6e1fdd97bcf3d8827471d558310c65e",
        "transcript.log":
            "34614bca5ae29b531b046b495b938220c80476c915373fab3d0e6bf8cc09a344",
    }),
    ("adv-risk", "attacker.name = identity", 42, {
        "results.csv":
            "ba191fc82c422d37c9834d2839ad83792f11597f2aa53642bd9f1b0c3c584f40",
        "transcript.log":
            "92bbc189414683116c4180843f629738e7dba86ed5e4dca09cad85126c387b48",
    }),
    ("adv-risk", "attacker.name = identity", 7, {
        "results.csv":
            "16643282658744e81af8c5192d7c1fea70065065de9f7ffa38108da3083976a7",
        "transcript.log":
            "b9474a7f3a07ac3ec9675b1823eeab3879fcec2a40761eeb54be77ce024933c4",
    }),
    ("adv-risk", "attacker.name = greedy", 42, {
        "results.csv":
            "6ca035ab2de49e49f28204a5b6ae9630a3d4d5cdee7d9d43366c26a89eb1895f",
        "transcript.log":
            "a154297a62a753bc84f3b9779731d3c0942150ddc12a150bc1585ef47c68c1bc",
    }),
    ("adv-risk", "attacker.name = greedy", 7, {
        "results.csv":
            "9eae275f16fd8777797678671f9d1eabbb0b821a42c07fcce557d5b15d19dda5",
        "transcript.log":
            "54bc18e962afd8f5f6ab91d0cd527de39c5cba6d69c74bb72e26a3652a0ea84d",
    }),
    ("adv-risk", "attacker.name = bounded_c1", 42, {
        "results.csv":
            "2b3b5f003bbfae7c68ba6d57c56a32397cfa7b39ab9ca0e2bfa171333f7ed54e",
        "transcript.log":
            "fec15d6006a4711525821fb29fef26e33240bc155ae4adec84f5dc501c7ae49c",
    }),
    ("adv-risk", "attacker.name = bounded_c1", 7, {
        "results.csv":
            "987d3b6ae9c31f11ddeceb74e480c5b45c8a50f7a386e8c7e0c69fa328f06fab",
        "transcript.log":
            "fe3b21a265c0b910345bac2c38d313b29638f6a1a0dc4206010f0db65af24347",
    }),
    ("adv-risk", "attacker.name = unbounded_c1", 42, {
        "results.csv":
            "20975cc0626fcafdf9c8595d89ca860885f8889edab81f17dabda6c0efc09c84",
        "transcript.log":
            "78189f088d6a3ba0a175411d67206485550617ebdbfcf258af85ea39b27d78e5",
    }),
    ("adv-risk", "attacker.name = unbounded_c1", 7, {
        "results.csv":
            "48488ada29fe7dc97bdcd7d23a09815876e679898372bdd3c5a1f6528600bb81",
        "transcript.log":
            "1ebaf6406aecec540dc1365fc61a33854fb826cc454bab3c7299fc5f87e8ff7f",
    }),
    ("adv-risk", "attacker.name = bounded_c3", 42, {
        "results.csv":
            "202550154f95caa97837ff08e5b49fd7ca92ef13e0619b049054aa43068aa3e5",
        "transcript.log":
            "6eccd5d577d1c6a28003667b846000635cab4b4fb60864fd0b3334f7a8105c35",
    }),
    ("adv-risk", "attacker.name = bounded_c3", 7, {
        "results.csv":
            "4bc19a392d3ea03d9b5a2300c26e8ee74904525a46c125a20af9af73ebe516a3",
        "transcript.log":
            "82135303226f4d0846774395eb0e29e0561087bbf27195454a81540f93e7e14a",
    }),
    ("adv-risk", "attacker.name = unbounded_c3", 42, {
        "results.csv":
            "8dbb89576f8286c46b6af75cd8336596b3492263366fb4bffe8e407902c6c66f",
        "transcript.log":
            "da661d6c8d429d589289558bd44fb7ee5fa717b71a7b14421d4cc317f5e032e2",
    }),
    ("adv-risk", "attacker.name = unbounded_c3", 7, {
        "results.csv":
            "c9c40e856941b86c6135d6dd954ed92b785a1538065013d724f49c0f0e3a78c0",
        "transcript.log":
            "e1b0c0ce961318dfc60bee1ab6c0634e2ddaa01f4453b657f375e89cdfdd022a",
    }),
    ("separation", C1_SLEN8, 42, {
        "results.csv":
            "ac96d55ba0c61efd70c3f9c44b60a442c19526048dc064a744f3855210222e4f",
        "transcript.log":
            "d1ac1e21bcb04d294298db6dc8731ee93b03e5ad40529ffde716141047e2aeca",
    }),
    ("separation", C1_SLEN8, 7, {
        "results.csv":
            "b1c98d0f4846a1313b37e3003b04467a365a4740c8f6ad9a6df62a7434b036e3",
        "transcript.log":
            "c050e957d90c34dbf07fec24583b707201573fe6255832fa9186e73df25c8f43",
    }),
    ("separation", C1_SLEN17, 42, {
        "results.csv":
            "b312cecffad86495be177bf90ed0527695edba9e45051d9d130b1c23a463c0ea",
        "transcript.log":
            "616175500ffb69270b764508422eb1143e41f08f5fd11c3b2bfe479cd12806ca",
    }),
    ("separation", C1_SLEN17, 7, {
        "results.csv":
            "538d80e7327afcff92ee3986751f22d0d02504caf6042822769bdf84f4f26dff",
        "transcript.log":
            "e38d678ffba97da6de82bc9de231842372b33caf5e4d7300e1f601372be3a6fb",
    }),
    ("adv-risk", C1_SLEN40, 42, {
        "results.csv":
            "8a5e8ac6ebd6a56b7941a7b1dec2c9f69602b859a595c8526faeb5ae2775b14b",
        "transcript.log":
            "7cb4ccf656110c081435e0bd5851396de475b958b32324ae9b238e5766311e9d",
    }),
    ("adv-risk", C1_SLEN40, 7, {
        "results.csv":
            "a46ffa2e12e941f02e5318a756ba12e8c6f343cb93c6ecb9e1af41f7fbb1833a",
        "transcript.log":
            "1808ac615fb2d74898637c12bc876560593c457225b177f7a1878896828e06ae",
    }),
    ("c3", C3_SLEN17, 42, {
        "results.csv":
            "10a7b5af79abb3784df8f8e0e71023f6fcd34fac2d1f14c19a2b50dc561325c6",
        "transcript.log":
            "79899ca2d86fbb6c23d0ed74f3f2febf3aa929f13f14764af314e1b5f34b5f93",
    }),
    ("c3", C3_SLEN17, 7, {
        "results.csv":
            "0b138310c252a18b00b3e3a3e0d0f08d32f550800a59f79e5b87e231defc27b4",
        "transcript.log":
            "f5e95507bae1599630e91cb0d1c70cb2388d64a382ffe6684eebf72bb9c523bf",
    }),
    ("adv-risk", C3_SLEN60, 42, {
        "results.csv":
            "be1f3404dc9bb5ec756d39566bc3fffbe7659539f98bb7404d0043ce89675d82",
        "transcript.log":
            "0fa7750d80981cbb02c8797c4332906e7369100fcc7a65e6379895ff9c26707a",
    }),
    ("adv-risk", C3_SLEN60, 7, {
        "results.csv":
            "365c1c643b03ae7f5f6968af1b17807d2fee7f1e7d012f6ca1b3efa11fcfd9aa",
        "transcript.log":
            "d4ee448a915f1fb864de619e3a87c653f8da768df62c4df25909274538672d32",
    }),
]


@cache
def _run(command, lines, seed):
    """({output name: sha256}, the set of reasons in the transcript)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.cfg", Path(tmp) / "o"
        cfg.write_text("".join(p + "\n" for p in lines.split("; ") if p))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([command, "--config", str(cfg), "--seed", str(seed),
                         "--trials", str(TRIALS), "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
    if not files:  # oracle-check writes only to stdout
        files["stdout"] = stdout.getvalue().encode()
    reasons = re.findall(r"reason=(\w+)",
                         files.get("transcript.log", b"").decode())
    return ({name: hashlib.sha256(data).hexdigest()
             for name, data in files.items()}, set(reasons))


@pytest.mark.parametrize("command,lines,seed,want", PINNED_BYTES)
def test_cli_writes_pinned_bytes(command, lines, seed, want):
    assert _run(command, lines, seed)[0] == want


def test_pinned_runs_reach_every_reason_an_attacker_can():
    # No attacker tampers past its budget or hands over a signature that
    # fails to verify, so budget_exceeded and detected_star (covered in
    # test_game) never appear in a transcript.
    seen = set().union(*(_run(c, lines, s)[1]
                         for c, lines, s, _ in PINNED_BYTES))
    assert seen == {r.value for r in Reason} - {"budget_exceeded",
                                                 "detected_star"}
