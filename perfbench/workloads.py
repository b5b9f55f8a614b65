"""The four benchmark workloads.

Each workload builds its objects with compgap's public constructors
(`setup`), then runs numbered batches of ops.  Batch i's inputs depend only
on (workload, seed, i), so a traced and an untraced pass over the same
batches see the same inputs.  Only the calls into compgap are timed; every
op is then checked against an exact oracle outside the timed region.  The
oracles are built by `oracles()` before any tracing is installed, so their
calls never show up as spans.

Nothing here imports compgap at module level: `setup` does, so that a fresh
process can time it from before `import compgap`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from pathlib import Path
from time import perf_counter
from typing import Dict, List


class Pass:
    """Totals of one pass over a run of batches."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.batches = 0
        self.program_s = 0.0
        self.wall = 0.0
        self.agg: Dict[str, int] = {}
        self.errors: List[str] = []
        self._digest = hashlib.sha256()
        self.prefix_digest = ""

    def run(self, w: "Workload", i: int) -> None:
        w.run_batch(i, self)
        self.batches = i + 1
        if self.batches == w.digest_batches:
            self.prefix_digest = self.digest()

    def add(self, name: str, n: int = 1) -> None:
        self.agg[name] = self.agg.get(name, 0) + n

    def outcome(self, data: bytes) -> None:
        self._digest.update(data)

    def digest(self) -> str:
        return self._digest.hexdigest()


def _quiet_cli(argv: List[str], p: Pass) -> int:
    """cli.main with its printing captured; a failing call's stderr is kept
    in p.errors."""
    from compgap import cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        p.errors.append(f"compgap {' '.join(argv)} exited {rc}: "
                        f"{err.getvalue().strip()}")
    return rc


class Workload:
    name = ""
    why = ""
    op = ""
    params: Dict[str, object] = {}
    # the outcome digest covers this many leading batches, which every run
    # completes, so any two runs of one seed can compare it
    digest_batches = 1
    # a traced run does a fixed amount of work, this many batches per
    # --seconds (about what one second holds on a 2-core Xeon VM), so
    # its counts repeat exactly and its self times compare across commits
    trace_batches_per_s = 1.0

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def setup(self) -> None:
        raise NotImplementedError

    def oracles(self) -> None:
        raise NotImplementedError

    def run_batch(self, i: int, p: Pass) -> None:
        raise NotImplementedError

    def final_checks(self, p: Pass) -> List[str]:
        return []


class _GreedyOracle:
    """The base game with the optimal greedy attacker: exact, cheap, and
    independent of signatures, codes and CNF."""

    def __init__(self, d: int, alpha: float, b: int) -> None:
        from compgap import attackers, base_problems, game
        self.b = b
        self.params = base_problems.MajorityNoiseParams(d, alpha)
        self.analytic = float(base_problems.analytic_adv_risk(self.params, b))
        self._play = game.play_game
        self.mix_seed = game.mix_seed
        self._problem = base_problems.majority_noise_problem(self.params)
        self._h = base_problems.majority_hypothesis(d)
        self._greedy = attackers.greedy_majority_attacker(b)

    def wins(self, seed: int) -> bool:
        return self._play(self._problem, self._h, self._greedy, self.b,
                          seed).won


def _half_width(p: float, n: int) -> float:
    """The program's 95% normal half-width, 1.96*sqrt(p(1-p)/n)."""
    return 1.96 * math.sqrt(p * (1 - p) / n)


def _fields(line: str) -> Dict[str, str]:
    return dict(kv.split("=", 1) for kv in line.split())


class Separation(Workload):
    name = "separation"
    why = ("the paper's headline bounded-vs-unbounded C1 experiment through "
           "cli.main; hash-heavy, largest setup (2^16 PreimageIndex)")
    op = "one C1 game (bounded_c1 and unbounded_c1 in equal numbers)"
    trials = 25   # games per attacker per `compgap separation` call
    params = {"command": "compgap separation (cli.main)", "d": 15,
              "alpha": 0.05, "b": 2, "ots": "hlen=16 slen=16",
              "ecc": "RS(640,32) over GF(2^16)", "query_budget": 1024,
              "trials_per_call": trials}
    digest_batches = 8
    trace_batches_per_s = 2.4

    def setup(self) -> None:
        from compgap import attackers, base_problems, constructions
        from compgap.config import ExperimentConfig
        from compgap.ecc import reed_solomon
        cfg = ExperimentConfig()
        p = cfg.problem_params()
        ots, ecc = cfg.ots_params(), cfg.ecc_params()
        reed_solomon(ecc)
        attackers.unbounded_c1_attacker(p.d, cfg.problem.b, ots, ecc)
        attackers.bounded_c1_attacker(p.d, cfg.problem.b, ots, ecc,
                                      cfg.attacker.query_budget)
        constructions.wrapped_problem_c1(
            base_problems.majority_noise_problem(p), ots, ecc)
        constructions.classifier_c1(base_problems.majority_hypothesis(p.d),
                                    ots, ecc)
        self.query_budget = cfg.attacker.query_budget

    def oracles(self) -> None:
        self.oracle = _GreedyOracle(15, 0.05, 2)

    def run_batch(self, i: int, p: Pass) -> None:
        seed = self.rng(i).getrandbits(63)
        out = self.out_dir / "separation"
        argv = ["separation", "--seed", str(seed), "--trials",
                str(self.trials), "--out", str(out)]
        t0 = perf_counter()
        rc = _quiet_cli(argv, p)
        p.program_s += perf_counter() - t0
        p.ops += 2 * self.trials
        if rc != 0:
            p.failed += 2 * self.trials
            return
        results = (out / "results.csv").read_bytes()
        transcript = (out / "transcript.log").read_bytes()
        p.outcome(results + transcript)
        wins = {"bounded_c1": 0, "unbounded_c1": 0}
        games = {"bounded_c1": 0, "unbounded_c1": 0}
        name = ""
        for line in transcript.decode().splitlines():
            if line.startswith("# "):
                name = line[2:]
                continue
            f = _fields(line)
            won = f["won"] == "1"
            base = self.oracle.wins(int(f["seed"]))
            if name == "unbounded_c1":
                ok = won == base
            else:
                ok = int(f["queries"]) <= self.query_budget and \
                    (base or not won)
            p.failed += not ok
            games[name] += 1
            wins[name] += won
        # the summary rows must agree with the transcript
        points = {}
        for row in results.decode().splitlines():
            cols = row.split(",")
            if cols[0] == "separation":
                points[_fields(cols[1])["attacker"]] = cols[2]
        for name in games:
            if games[name] != self.trials or \
                    points.get(name) != "%.6f" % (wins[name] / self.trials):
                p.failed += self.trials
            p.add(name + ".games", games[name])
            p.add(name + ".wins", wins[name])

    def final_checks(self, p: Pass) -> List[str]:
        bad = []
        n = p.agg.get("unbounded_c1.games", 0)
        if n:
            rate = p.agg["unbounded_c1.wins"] / n
            hw = _half_width(self.oracle.analytic, n)
            if abs(rate - self.oracle.analytic) > 3 * hw:
                bad.append(f"unbounded_c1 rate {rate:.4f} is not within 3 "
                           f"half-widths of {self.oracle.analytic:.4f}")
        n = p.agg.get("bounded_c1.games", 0)
        if n:
            rate = p.agg["bounded_c1.wins"] / n
            alpha = self.oracle.params.alpha
            if rate > alpha + 3 * _half_width(alpha, n):
                bad.append(f"bounded_c1 rate {rate:.4f} exceeds alpha + 3 "
                           f"half-widths")
        return bad


class C3(Workload):
    name = "c3"
    why = ("the always-answer C3 construction through estimate_risk and "
           "game_transcript; the only GF(2^8) and sample_c3/classifier_c3 "
           "user")
    op = "one honest trial or one game (100:10:1 honest:unbounded:bounded)"
    honest, unbounded, bounded = 100, 10, 1
    params = {"d": 128, "ots": "hlen=8 slen=10", "ecc": "RS(40,16) over "
              "GF(2^8)", "query_budget": 1024,
              "mix": "100 honest : 10 unbounded_c3 : 1 bounded_c3"}
    digest_batches = 8
    trace_batches_per_s = 3.5

    def setup(self) -> None:
        from compgap import attackers, base_problems, constructions
        from compgap.config import ExperimentConfig
        from compgap.ecc import reed_solomon
        cfg = ExperimentConfig()
        ots, ecc = cfg.c3_ots_params(), cfg.c3_ecc_params()
        reed_solomon(ecc)
        self.problem = constructions.c3_problem(
            base_problems.uniform_balanced_problem(cfg.c3.d), ots, ecc)
        self.h = constructions.classifier_c3(ots, ecc)
        self.unb = attackers.unbounded_c3_attacker(ots, ecc)
        self.bnd = attackers.bounded_c3_attacker(ots, ecc,
                                                 cfg.c3.query_budget)
        self.budget = ots.sig_bits
        self.query_cap = cfg.c3.query_budget + ots.hlen

    def oracles(self) -> None:
        from compgap import base_problems, game
        self.base = base_problems.uniform_balanced_problem(128)
        self.mix_seed = game.mix_seed

    def run_batch(self, i: int, p: Pass) -> None:
        from compgap import game
        rng = self.rng(i)
        s_h, s_u, s_b = (rng.getrandbits(63) for _ in range(3))
        t0 = perf_counter()
        est = game.estimate_risk(self.problem, self.h, self.honest, s_h)
        unb = game.game_transcript(self.problem, self.h, self.unb,
                                   self.budget, self.unbounded, s_u)
        bnd = game.game_transcript(self.problem, self.h, self.bnd,
                                   self.budget, self.bounded, s_b)
        p.program_s += perf_counter() - t0
        p.ops += self.honest + self.unbounded + self.bounded
        # honest risk is exactly 0, so every honest trial is correct
        p.failed += round(est.point * self.honest)
        for j, o in enumerate(unb):
            y = self.base.sample(self.mix_seed(s_u, j))[1]
            p.failed += not (o.won == (y == 0)
                             and o.perturbation_used <= self.budget)
        for o in bnd:
            # the attacker checks its budget before each verify, and one
            # verify charges at most hlen hashes
            p.failed += not (o.queries_used <= self.query_cap
                             and o.perturbation_used <= self.budget)
        p.outcome(repr((est.point, [(o.won, o.reason.value,
                                     o.perturbation_used, o.queries_used)
                                    for o in unb + bnd])).encode())


class RsDecode(Workload):
    name = "rs_decode"
    why = ("RS(640,32)/GF(2^16) decode with t uniform in 0..304 corrupted "
           "symbols; the only workload on the error-correcting path")
    op = "one codeword: encode, corrupt t symbols, decode, compare"
    per_batch = 8
    params = {"ecc": "RS(640,32) over GF(2^16)", "message_bits": 512,
              "errors": "one random bit in each of t distinct symbols, "
                        "t uniform on 0..304",
              "codewords_per_batch": "8, t stratified over 8 equal bands"}
    digest_batches = 4
    trace_batches_per_s = 2.5

    def setup(self) -> None:
        from compgap.ecc import EccParams, reed_solomon
        self.ecc = EccParams(32, 640, 16)
        self.rs = reed_solomon(self.ecc)

    def oracles(self) -> None:
        from compgap.bitstring import BitString
        self.bits = BitString

    def run_batch(self, i: int, p: Pass) -> None:
        """Codeword j of a batch draws t uniformly from band j of 8 equal
        bands of [0, t_max + 1): each t is still uniform on 0..t_max, and
        every batch carries about the same decoding work."""
        from compgap.errors import DecodeFailure
        rng = self.rng(i)
        ecc = self.ecc
        band = (ecc.t_max + 1) / self.per_batch
        for j in range(self.per_batch):
            msg = self.bits(rng.getrandbits(ecc.data_bits), ecc.data_bits)
            t = int((j + rng.random()) * band)
            flips = [s * 16 + rng.randrange(16)
                     for s in rng.sample(range(ecc.n_sym), t)]
            t0 = perf_counter()
            cw = self.rs.encode(msg)
            p.program_s += perf_counter() - t0
            received = cw.flip(*flips) if flips else cw
            t0 = perf_counter()
            try:
                got = self.rs.decode(received)
            except DecodeFailure:
                got = None
            p.program_s += perf_counter() - t0
            p.ops += 1
            p.failed += got != msg
            p.outcome(b"%d:%s;" % (t, b"fail" if got is None
                                   else b"%x" % got.value))


class NpForge(Workload):
    name = "np_forge"
    why = ("compgap np-forge through cli.main, S1 and S2 batches 4:1; the "
           "only workload on circuits, cnf, samplers and the solver")
    op = "one formula: compile, solve, DIMACS write, witness check"
    s1_count, s2_count = 4, 1
    params = {"command": "compgap np-forge (cli.main)",
              "s1": "d=11 b=2", "s2": "d=11 b=2 k=40 tau=default",
              "formulas_per_batch": "4 S1 + 1 S2 (the 200:50 batch ratio)"}
    digest_batches = 4
    trace_batches_per_s = 2.0

    def setup(self) -> None:
        from compgap import base_problems, circuits
        cfg_dir = self.out_dir / "np_forge"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        p = base_problems.MajorityNoiseParams(11, 0.05)
        base_problems.majority_noise_problem(p)
        base_problems.majority_hypothesis(11)
        circuits.circuit_of_majority(11)
        self.cfg = {}
        for stage, n in (("s1", self.s1_count), ("s2", self.s2_count)):
            path = cfg_dir / f"{stage}.cfg"
            path.write_text(f"forge.stage = {stage}\nforge.count = {n}\n")
            self.cfg[stage] = path

    def oracles(self) -> None:
        self.oracle = _GreedyOracle(11, 0.05, 2)
        tau = (0.05 + self.oracle.analytic) / 2
        self.k = 40
        self.need = math.ceil(tau * self.k)

    def _sat(self, stage: str, seed: int) -> bool:
        if stage == "s1":
            return self.oracle.wins(seed)
        hits = sum(self.oracle.wins(self.oracle.mix_seed(seed, j))
                   for j in range(self.k))
        return hits >= self.need

    def run_batch(self, i: int, p: Pass) -> None:
        rng = self.rng(i)
        for stage, n in (("s1", self.s1_count), ("s2", self.s2_count)):
            out = self.out_dir / "np_forge" / stage
            argv = ["np-forge", "--config", str(self.cfg[stage]), "--seed",
                    str(rng.getrandbits(63)), "--out", str(out)]
            t0 = perf_counter()
            rc = _quiet_cli(argv, p)
            p.program_s += perf_counter() - t0
            p.ops += n
            if rc != 0:
                p.failed += n
                continue
            transcript = (out / "transcript.log").read_bytes()
            p.outcome((out / "results.csv").read_bytes() + transcript)
            manifest = (out / "manifest.txt").read_text().splitlines()
            status = transcript.decode().splitlines()
            if len(manifest) != n or len(status) != n:
                p.failed += n
                continue
            for m_line, s_line in zip(manifest, status):
                sat = _fields(s_line)["status"] == "sat"
                seed = int(_fields(m_line.split(" ", 1)[1])["seed"])
                p.failed += sat != self._sat(stage, seed)
                p.add(f"{stage}.sat", sat)
                p.add(f"{stage}.formulas")


WORKLOADS = {w.name: w for w in (Separation, C3, RsDecode, NpForge)}
