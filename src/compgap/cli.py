"""Command-line experiment runner.

Subcommands cover the headline measurements (risk, adv-risk, separation,
c3), CNF bundle emission (np-forge), the frozen-oracle self-check
(oracle-check), and a plain-text summary of a results directory (report).
Outputs are deterministic given (config, seed): same inputs, byte-identical
results.csv.

Exit codes: 0 success, 2 configuration error (degenerate parameters
included) or a bad path, 3 runtime invariant violation (including a failed
oracle check and an attacker's instance of the wrong length).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import List, NamedTuple, Optional

from . import attackers as atk
from .base_problems import (MajorityNoiseParams, analytic_adv_risk,
                            brute_force_adv_risk, majority_hypothesis,
                            majority_noise_problem, uniform_balanced_problem)
from .bitstring import BitString
from .circuits import circuit_of_majority
from .cnf import CnfFormula, encode_hamming_ball, write_dimacs
from .config import ExperimentConfig, parse_config
from .constructions import (c3_problem, classifier_c1, classifier_c3,
                            wrapped_problem_c1)
from .ecc import EccParams, reed_solomon
from .errors import ConfigError, InvariantViolation
from .game import (Hypothesis, Problem, binomial_half_width, estimate_risk,
                   game_transcript, mix_seed)
from .samplers import check_witness, sample_s1, sample_s2, sample_s_final
from .solver import Status, count_projected_models, solve_small

CSV_HEADER = "experiment,params,point,half_width,trials,seed"


def _csv_row(experiment: str, params: str, point: float, half_width: float,
             trials: int, seed: int) -> str:
    return (f"{experiment},{params},{point:.6f},{half_width:.6f},"
            f"{trials},{seed}")


def _read_text(path: Path) -> str:
    """The text of a file named on the command line; ConfigError when it is
    not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text (byte {exc.start}: "
                          f"{exc.reason})") from None


def _write_out(out_dir: Path, rows: List[str],
               transcript: List[str]) -> int:
    """Write results.csv and transcript.log, echo the rows; exit code 0."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.csv").write_text(
        CSV_HEADER + "\n" + "".join(r + "\n" for r in rows))
    (out_dir / "transcript.log").write_text(
        "".join(line + "\n" for line in transcript))
    for r in rows:
        print(r)
    return 0


#: Attackers each game command plays, in playing order; adv-risk plays
#: attacker.name
GAMES = {"separation": ("bounded_c1", "unbounded_c1"),
         "c3": ("unbounded_c3", "bounded_c3")}


class Game(NamedTuple):
    problem: Problem
    hypothesis: Hypothesis
    attacker: atk.Attacker
    budget: int
    tag: str  # the params column of the game's results.csv row


def _build_game(cfg: ExperimentConfig, name: str) -> Game:
    """The game attacker `name` plays, built from exactly the settings it
    reads.  Building is checking: the parameter objects, constructions and
    attackers raise ConfigError on a bad value, and this function checks
    problem.b and C1's b + sig_bits <= t_max."""
    b = cfg.problem.b
    if name in ("identity", "greedy", "bounded_c1", "unbounded_c1"):
        if b < 0:
            raise ConfigError("problem.b must be >= 0")
        p = cfg.problem_params()
        prob, h = majority_noise_problem(p), majority_hypothesis(p.d)
        budget, tag = b, f"d={p.d} alpha={p.alpha} b={b} attacker={name}"
    elif name in ("bounded_c3", "unbounded_c3"):
        ots, ecc = cfg.c3_ots_params(), cfg.c3_ecc_params()
        prob = c3_problem(uniform_balanced_problem(cfg.c3.d), ots, ecc)
        h = classifier_c3(ots, ecc)
        budget = ots.sig_bits
        tag = (f"d={cfg.c3.d} hlen={ots.hlen} slen={ots.slen} "
               f"budget={budget} attacker={name}")
    else:
        raise ConfigError(
            "attacker.name must be one of identity, greedy, bounded_c1, "
            f"unbounded_c1, bounded_c3, unbounded_c3; got {name!r}")
    if name == "identity":
        a = atk.identity_attacker()
    elif name == "greedy":
        a = atk.greedy_majority_attacker(b)
    elif name in ("bounded_c1", "unbounded_c1"):
        ots, ecc = cfg.ots_params(), cfg.ecc_params()
        prob = wrapped_problem_c1(prob, ots, ecc)
        h = classifier_c1(h, ots, ecc)
        budget = b + ots.sig_bits
        # a tamper within budget must stay inside the key code's radius
        if budget > ecc.t_max:
            raise ConfigError(f"{name} needs b + sig_bits <= t_max; "
                              f"{budget} > {ecc.t_max}")
        tag += f" hlen={ots.hlen} slen={ots.slen} budget={budget}"
        if name == "bounded_c1":
            a = atk.bounded_c1_attacker(p.d, b, ots, ecc,
                                        cfg.attacker.query_budget)
            tag += f" queries={cfg.attacker.query_budget}"
        else:
            a = atk.unbounded_c1_attacker(p.d, b, ots, ecc)
    elif name == "bounded_c3":
        a = atk.bounded_c3_attacker(ots, ecc, cfg.c3.query_budget)
        tag += f" queries={cfg.c3.query_budget}"
    else:
        a = atk.unbounded_c3_attacker(ots, ecc)
    return Game(prob, h, a, budget, tag)


def _build_games(cfg: ExperimentConfig, kind: str) -> List[Game]:
    """Every game command `kind` plays, built before the first trial so that
    a bad setting of any of them exits 2 with nothing run or written."""
    names = (cfg.attacker.name,) if kind == "adv-risk" else GAMES[kind]
    return [_build_game(cfg, name) for name in names]


def _play_games(cfg: ExperimentConfig, kind: str, games: List[Game],
                rows: List[str], transcript: List[str]) -> dict:
    """Play each game for cfg.trials trials, append its row and transcript
    lines, and return its win rate by attacker name."""
    points = {}
    for g in games:
        outcomes = game_transcript(g.problem, g.hypothesis, g.attacker,
                                   g.budget, cfg.trials, cfg.seed)
        point = points[g.attacker.name] = sum(o.won for o in outcomes) / cfg.trials
        rows.append(_csv_row(kind, g.tag, point,
                             binomial_half_width(point, cfg.trials),
                             cfg.trials, cfg.seed))
        if len(games) > 1:  # label each attacker's part of the transcript
            transcript.append(f"# {g.attacker.name}")
        transcript.extend(
            f"trial={i} seed={mix_seed(cfg.seed, i)} won={int(o.won)} "
            f"reason={o.reason.value} dist={o.perturbation_used} "
            f"queries={o.queries_used}"
            for i, o in enumerate(outcomes))
    return points


def cmd_risk(cfg: ExperimentConfig, out_dir: Path) -> int:
    p = cfg.problem_params()
    est = estimate_risk(majority_noise_problem(p), majority_hypothesis(p.d),
                        cfg.trials, cfg.seed)
    rows = [_csv_row("risk", f"d={p.d} alpha={p.alpha}", est.point,
                     est.half_width, cfg.trials, cfg.seed)]
    return _write_out(out_dir, rows, [f"risk point={est.point:.6f}"])


def cmd_adv_risk(cfg: ExperimentConfig, out_dir: Path) -> int:
    games = _build_games(cfg, "adv-risk")
    rows, transcript = [], []
    _play_games(cfg, "adv-risk", games, rows, transcript)
    return _write_out(out_dir, rows, transcript)


def cmd_separation(cfg: ExperimentConfig, out_dir: Path) -> int:
    games = _build_games(cfg, "separation")
    p = cfg.problem_params()
    params = f"d={p.d} alpha={p.alpha} b={cfg.problem.b}"
    rows = [_csv_row("separation-oracle", params,
                     float(analytic_adv_risk(p, cfg.problem.b)), 0.0, 0,
                     cfg.seed)]
    transcript: List[str] = []
    points = _play_games(cfg, "separation", games, rows, transcript)
    rows.append(_csv_row("separation-gap", params,
                         points["unbounded_c1"] - points["bounded_c1"], 0.0,
                         cfg.trials, cfg.seed))
    return _write_out(out_dir, rows, transcript)


def cmd_c3(cfg: ExperimentConfig, out_dir: Path) -> int:
    games = _build_games(cfg, "c3")
    # the honest risk of the problem and classifier both games play
    est = estimate_risk(games[0].problem, games[0].hypothesis, cfg.trials,
                        cfg.seed)
    c3 = cfg.c3
    rows = [_csv_row("c3-risk", f"d={c3.d} hlen={c3.hlen} slen={c3.slen}",
                     est.point, est.half_width, cfg.trials, cfg.seed)]
    transcript = [f"c3 honest risk point={est.point:.6f}"]
    _play_games(cfg, "c3", games, rows, transcript)
    return _write_out(out_dir, rows, transcript)


def cmd_np_forge(cfg: ExperimentConfig, out_dir: Path) -> int:
    fc = cfg.forge
    p = MajorityNoiseParams(fc.d, cfg.problem.alpha)
    prob = majority_noise_problem(p)
    circuit = circuit_of_majority(fc.d)
    beta = float(analytic_adv_risk(p, fc.b))
    tau = fc.tau if fc.tau > 0 else (p.alpha + beta) / 2

    def build(i: int):
        seed = mix_seed(cfg.seed, i)
        if fc.stage == "s1":
            return sample_s1(prob, circuit, fc.b, seed)
        if fc.stage == "s2":
            return sample_s2(prob, circuit, fc.b, fc.k, tau, seed)
        return sample_s_final(prob, circuit, fc.b, fc.k, tau, fc.reps, seed)

    # every bundle has bundle 0's size, so building it checks forge.reps
    # and the formula's variable cap before --out is made
    bundle = build(0)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest, transcript = [], []
    sat = unknown = 0
    for i in range(fc.count):
        if i:
            bundle = build(i)
        res = solve_small(bundle.formula)
        name = f"{fc.stage}_{i:04d}.cnf"
        (out_dir / name).write_text(write_dimacs(bundle.formula))
        manifest.append(f"{name} stage={bundle.stage.upper()} seed={bundle.seed} "
                        f"d={fc.d} b={fc.b} k={fc.k} tau={tau:.6f}")
        if res.status is Status.SAT:
            sat += 1
            if not check_witness(bundle, circuit, res.assignment):
                raise InvariantViolation(f"bundle {i} witness failed round-trip")
        elif res.status is Status.UNKNOWN:
            unknown += 1
        transcript.append(f"bundle={i} status={res.status.value}")
    (out_dir / "manifest.txt").write_text(
        "".join(line + "\n" for line in manifest))
    frac = sat / fc.count
    # an undecided bundle is neither SAT nor UNSAT, so with unknown > 0
    # frac is a lower bound on the SAT rate; runs without one keep their
    # bytes
    params = (f"stage={fc.stage} d={fc.d} b={fc.b} k={fc.k} "
              f"tau={tau:.6f} witnesses={sat}"
              + (f" unknown={unknown}" if unknown else ""))
    rows = [_csv_row("np-forge", params,
                     frac, binomial_half_width(frac, fc.count), fc.count,
                     cfg.seed)]
    return _write_out(out_dir, rows, transcript)


def cmd_oracle_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += not ok

    p15 = MajorityNoiseParams(15, 0.05)
    a15 = analytic_adv_risk(p15, 2)
    check("closed-form adversarial risk d=15 b=2 equals 0.713330078125",
          float(a15) == 0.713330078125)
    p11 = MajorityNoiseParams(11, 0.05)
    check("closed-form equals ball enumeration at d=11 b=2",
          analytic_adv_risk(p11, 2) ==
          brute_force_adv_risk(p11, majority_hypothesis(11), 2))
    check("budget 0 collapses to the noise rate",
          analytic_adv_risk(p15, 0) == Fraction(0.05))

    ecc = EccParams(k_sym=2, n_sym=6, bits_per_symbol=8)
    rs = reed_solomon(ecc)
    ok = True
    msg = BitString(0xA53C, 16)
    cw = rs.encode(msg)
    for t in range(ecc.t_max + 1):
        for pos in combinations(range(cw.length), t):
            if rs.decode(cw.flip(*pos) if pos else cw) != msg:
                ok = False
    check("exhaustive corruption sweep at (k_sym=2, n_sym=6)", ok)

    f = CnfFormula()
    iv = f.new_vars(6)
    encode_hamming_ball(f, BitString(0b101010, 6), iv, 2)
    check("radius-2 ball over 6 bits has 22 points",
          count_projected_models(f, iv) == 22)

    if failures:
        print(f"{failures} oracle check(s) failed")
        return 3
    print("all oracle checks passed")
    return 0


def cmd_report(cfg: ExperimentConfig, out_dir: Path) -> int:
    csv_path = out_dir / "results.csv"
    if not csv_path.exists():
        raise ConfigError(f"no results.csv under {out_dir}")
    rows = [line.split(",") for line in _read_text(csv_path).splitlines()
            if line]
    if not rows:
        raise ConfigError(f"{csv_path} is empty")
    columns = len(CSV_HEADER.split(","))
    for line_no, r in enumerate(rows, start=1):
        if len(r) != columns:
            raise ConfigError(f"{csv_path}: row {line_no} has {len(r)} "
                              f"columns, expected {columns}")
    widths = [max(len(r[i]) for r in rows) for i in range(columns)]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0


_COMMANDS: dict = {
    "risk": cmd_risk,
    "adv-risk": cmd_adv_risk,
    "separation": cmd_separation,
    "c3": cmd_c3,
    "np-forge": cmd_np_forge,
    "oracle-check": cmd_oracle_check,
    "report": cmd_report,
}


@cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compgap",
        description="Tampering-game experiments with seeded reproducibility")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = parse_config(_read_text(Path(args.config)))
        else:
            cfg = ExperimentConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.trials is not None:
            # np-forge's trials are its bundles
            cfg.trials = cfg.forge.count = args.trials
        if args.out is not None:
            cfg.out = args.out
        cfg.validate(args.command)
        return _COMMANDS[args.command](cfg, Path(cfg.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a --config or --out path that cannot be used
        print(f"path error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
