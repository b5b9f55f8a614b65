import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compgap
from compgap import cli, config
from compgap.cli import _build_game, _build_games, main
from compgap.config import ExperimentConfig, parse_config
from compgap.ecc import EccParams
from compgap.errors import ConfigError, ParseError


def test_empty_file_is_full_default():
    assert parse_config("") == ExperimentConfig()


def test_dotted_key_parses():
    cfg = parse_config("problem.d = 15\n")
    assert cfg.problem.d == 15


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nproblem.alpha = 0.2  # inline\n")
    assert cfg.problem.alpha == 0.2


def test_bad_value_names_line():
    with pytest.raises(ParseError) as e:
        parse_config("problem.d = fifteen\n")
    assert e.value.line_no == 1


def test_unknown_key_rejected():
    with pytest.raises(ParseError):
        parse_config("problem.q = 3\n")
    with pytest.raises(ParseError):
        parse_config("nonsense = 3\n")


def test_parse_error_is_a_config_error():
    # cli.main catches ConfigError alone for both
    assert issubclass(ParseError, ConfigError)


# the key width 2*hlen^2 fixes C3's d, and with the game's budget it fixes
# each key code's symbol width, k_sym and n_sym, so none is a setting; every
# hash runs ots.ROUNDS rounds
@pytest.mark.parametrize("command,line", [("risk", "ecc.k_sym = 32"),
                                          ("c3", "c3.k_sym = 16"),
                                          ("c3", "c3.d = 128"),
                                          ("separation", "ecc.n_sym = 640"),
                                          ("c3", "c3.n_sym = 40"),
                                          ("separation",
                                           "ecc.bits_per_symbol = 16"),
                                          ("c3", "c3.bits_per_symbol = 8"),
                                          ("separation",
                                           "ots.hash_rounds = 2")])
def test_derived_and_fixed_keys_are_unknown(tmp_path, capsys, command, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert run_cli([command, "--config", str(cfg), "--trials", "2",
                    "--out", str(tmp_path / "o")]) == 2
    assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_derived_widths():
    cfg = ExperimentConfig()
    # each key code corrects exactly its game's budget: b + sig_bits = 258
    # for C1, sig_bits = 80 for C3
    assert cfg.ecc_params() == EccParams(32, 548, 16)
    assert cfg.c3_ecc_params() == EccParams(16, 176, 8)
    assert cfg.ecc_params().t_max == cfg.problem.b + cfg.ots_params().sig_bits
    assert cfg.c3_ecc_params().t_max == cfg.c3_ots_params().sig_bits
    assert cfg.c3.d == 128
    cfg.ots.hlen = cfg.c3.hlen = 4
    assert cfg.ecc_params() == EccParams(4, 4 + 2 * (2 + 64), 8)
    assert cfg.c3_ecc_params() == EccParams(4, 4 + 2 * 40, 8)
    assert cfg.c3.d == 32
    cfg.problem.b = 5
    assert cfg.ecc_params().t_max == 5 + 64
    # a config takes no attribute it does not declare
    with pytest.raises(AttributeError):
        cfg.ecc = EccParams(32, 548, 16)
    with pytest.raises(AttributeError):
        cfg.c3.bits_per_symbol = 8
    with pytest.raises(AttributeError):
        cfg.c3.d = 32


def _accepts(k_sym, n_sym, width):
    try:
        EccParams(k_sym, n_sym, width)
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize("hlen", range(1, 9))
def test_each_key_code_has_the_narrowest_width_that_holds_it(hlen):
    # C1's budget is b + sig_bits, C3's sig_bits; where no width holds the
    # code, deriving it is an error
    cfg = ExperimentConfig()
    cfg.ots.hlen = cfg.c3.hlen = hlen
    key_bits = 2 * hlen * hlen
    for slen in range(1, 21):
        cfg.ots.slen = cfg.c3.slen = slen
        for b in range(4):
            cfg.problem.b = b
            for derive, budget in ((cfg.ecc_params, b + hlen * slen),
                                   (cfg.c3_ecc_params, hlen * slen)):
                widths = [w for w in range(2, 17) if key_bits % w == 0
                          and _accepts(key_bits // w,
                                       key_bits // w + 2 * budget, w)]
                if not widths:
                    with pytest.raises(ConfigError):
                        derive()
                    continue
                code = derive()
                assert code.bits_per_symbol == widths[0]
                assert code.data_bits == key_bits
                assert code.t_max == budget


def test_top_level_keys():
    cfg = parse_config("trials = 9\nseed = 77\nout = results\n")
    assert (cfg.trials, cfg.seed, cfg.out) == (9, 77, "results")


def test_validation_catches_bad_attacker():
    cfg = ExperimentConfig()
    cfg.attacker.name = "sneaky"
    with pytest.raises(ConfigError):
        _build_games(cfg, "adv-risk")


KNOWN_ATTACKERS = ("identity", "greedy", "bounded_c1", "unbounded_c1",
                   "bounded_c3", "unbounded_c3")


@pytest.mark.parametrize("name", ["sneaky", "bounded_c3x"])
def test_build_game_rejects_unknown_attacker(name):
    # no name falls through to another attacker's game
    with pytest.raises(ConfigError) as e:
        _build_game(ExperimentConfig(), name)
    assert all(known in str(e.value) for known in KNOWN_ATTACKERS)


@pytest.mark.parametrize("name", KNOWN_ATTACKERS)
def test_build_game_builds_each_known_attacker(name):
    assert _build_game(ExperimentConfig(), name).attacker.name == name


def run_cli(args):
    return main(args)


# the child limits its own address space to 3 GiB, then runs the CLI
_CAPPED_CHILD = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
                 "from compgap.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")


def run_cli_capped(args, err=""):
    """main(args) in a child process that may run 60 s; its exit code,
    after checking that it printed no traceback and that its stderr holds
    `err`."""
    src = str(Path(compgap.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, *args],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert "Traceback" not in done.stderr
    assert err in done.stderr
    return done.returncode


def test_cli_risk_writes_outputs(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["risk", "--trials", "300", "--out", str(out)]) == 0
    csv = (out / "results.csv").read_text().splitlines()
    assert csv[0] == "experiment,params,point,half_width,trials,seed"
    assert csv[1].startswith("risk,")
    assert (out / "transcript.log").exists()


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["adv-risk", "--trials", "100", "--out", str(a)])
    run_cli(["adv-risk", "--trials", "100", "--out", str(b)])
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_cli_seed_changes_rows(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["risk", "--trials", "200", "--seed", "1", "--out", str(a)])
    run_cli(["risk", "--trials", "200", "--seed", "2", "--out", str(b)])
    assert (a / "results.csv").read_text() != (b / "results.csv").read_text()


def test_cli_reuses_one_parser(tmp_path):
    # main parses with one parser per process, and a usage error (argparse
    # exits 2) leaves it fit for the next call in the same process
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        run_cli(["risk", "--trials", "many"])
    assert exc.value.code == 2
    out = tmp_path / "o"
    assert run_cli(["risk", "--trials", "50", "--seed", "3",
                    "--out", str(out)]) == 0
    assert (out / "results.csv").read_text().splitlines()[1] \
        .endswith(",50,3")


def test_cli_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("problem.d = fifteen\n")
    assert run_cli(["risk", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command,name", [("risk", "c.cfg"),
                                          ("report", "o/results.csv")])
def test_cli_non_utf8_input_exit_2(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(b"\xff\xfe")
    argv = [command, "--out", str(tmp_path / "o")]
    if command == "risk":
        argv += ["--config", str(path)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_cli_invalid_params_exit_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("problem.d = 14\n")  # even d violates the precondition
    assert run_cli(["risk", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2


def test_cli_np_forge_emits_bundles(tmp_path):
    from compgap.cnf import read_dimacs
    for count in (5, 3):
        out = tmp_path / f"f{count}"
        cfg = tmp_path / f"c{count}.cfg"
        cfg.write_text(f"forge.count = {count}\nforge.d = 9\n")
        assert run_cli(["np-forge", "--config", str(cfg),
                        "--out", str(out)]) == 0
        files = sorted(p.name for p in out.glob("*.cnf"))
        assert len(files) == count
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert len(manifest) == count
        assert all(line.split()[0] in files for line in manifest)
        # emitted files parse back
        read_dimacs((out / files[0]).read_text())


def test_cli_np_forge_trials_set_the_bundle_count(tmp_path):
    # np-forge's trials are its bundles, forge.count
    out = tmp_path / "o"
    assert run_cli(["np-forge", "--trials", "3", "--out", str(out)]) == 0
    assert len(list(out.glob("*.cnf"))) == 3
    assert (out / "results.csv").read_text().splitlines()[1].split(",")[4] \
        == "3"


def test_cli_oracle_check_passes(tmp_path, capsys):
    assert run_cli(["oracle-check", "--out", str(tmp_path / "o")]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_cli_report_round_trip(tmp_path, capsys):
    out = tmp_path / "o"
    run_cli(["risk", "--trials", "100", "--out", str(out)])
    capsys.readouterr()
    assert run_cli(["report", "--out", str(out)]) == 0
    assert "risk" in capsys.readouterr().out


def test_cli_report_missing_results_exit_2(tmp_path):
    assert run_cli(["report", "--out", str(tmp_path / "nope")]) == 2


@pytest.mark.parametrize("text", [
    "",
    "experiment,params,point\nrisk,d=15,0.1\n",
    "experiment,params,point,half_width,trials,seed\nrisk,d=15\n"],
    ids=["empty", "short_header", "short_row"])
def test_cli_report_malformed_results_exit_2(tmp_path, text):
    out = tmp_path / "o"
    out.mkdir()
    (out / "results.csv").write_text(text)
    assert run_cli(["report", "--out", str(out)]) == 2


def test_cli_report_reads_only_results(tmp_path, capsys):
    # np-forge samples width forge.d and never reads problem.d, so an even
    # problem.d is valid for it but not for risk; report accepts it too
    cfg = tmp_path / "c.cfg"
    cfg.write_text("problem.d = 14\nforge.count = 2\nforge.d = 9\n")
    out = tmp_path / "o"
    assert run_cli(["risk", "--config", str(cfg),
                    "--out", str(tmp_path / "r")]) == 2
    assert run_cli(["np-forge", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert "np-forge" in capsys.readouterr().out



def test_thread_cap_env(tmp_path, monkeypatch):
    # np-forge solves in a plain loop and reads no COMPGAP_THREADS: a junk or
    # numeric value neither fails the run nor changes what it writes.
    cfg = tmp_path / "c.cfg"
    cfg.write_text("forge.count = 3\nforge.d = 9\n")
    outputs = []
    for raw in (None, "junk", "2"):
        if raw is None:
            monkeypatch.delenv("COMPGAP_THREADS", raising=False)
        else:
            monkeypatch.setenv("COMPGAP_THREADS", raw)
        out = tmp_path / f"o{len(outputs)}"
        assert run_cli(["np-forge", "--config", str(cfg),
                        "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1] == outputs[2]


# results.csv and transcript.log of `--trials 3 --seed 11` with the default
# config, pinned byte for byte
PINNED = {
    "separation": (
        "experiment,params,point,half_width,trials,seed\n"
        "separation-oracle,d=15 alpha=0.05 b=2,0.713330,0.000000,0,11\n"
        "separation,d=15 alpha=0.05 b=2 attacker=bounded_c1 hlen=16 slen=16"
        " budget=258 queries=1024,0.000000,0.000000,3,11\n"
        "separation,d=15 alpha=0.05 b=2 attacker=unbounded_c1 hlen=16"
        " slen=16 budget=258,1.000000,0.000000,3,11\n"
        "separation-gap,d=15 alpha=0.05 b=2,1.000000,0.000000,3,11\n",
        "# bounded_c1\n"
        "trial=0 seed=5833679380957638813 won=0 reason=correct_label dist=0"
        " queries=1024\n"
        "trial=1 seed=4839782808629744545 won=0 reason=correct_label dist=0"
        " queries=1024\n"
        "trial=2 seed=11769803791402734189 won=0 reason=correct_label dist=0"
        " queries=1024\n"
        "# unbounded_c1\n"
        "trial=0 seed=5833679380957638813 won=1 reason=tamper_win dist=99"
        " queries=1\n"
        "trial=1 seed=4839782808629744545 won=1 reason=tamper_win dist=79"
        " queries=1\n"
        "trial=2 seed=11769803791402734189 won=1 reason=tamper_win dist=86"
        " queries=1\n"),
    "c3": (
        "experiment,params,point,half_width,trials,seed\n"
        "c3-risk,d=128 hlen=8 slen=10,0.000000,0.000000,3,11\n"
        "c3,d=128 hlen=8 slen=10 budget=80 attacker=unbounded_c3,0.333333,"
        "0.533444,3,11\n"
        "c3,d=128 hlen=8 slen=10 budget=80 attacker=bounded_c3 queries=1024,"
        "0.000000,0.000000,3,11\n",
        "c3 honest risk point=0.000000\n"
        "# unbounded_c3\n"
        "trial=0 seed=5833679380957638813 won=0 reason=correct_label dist=0"
        " queries=0\n"
        "trial=1 seed=4839782808629744545 won=0 reason=correct_label dist=0"
        " queries=0\n"
        "trial=2 seed=11769803791402734189 won=1 reason=tamper_win dist=43"
        " queries=1\n"
        "# bounded_c3\n"
        "trial=0 seed=5833679380957638813 won=0 reason=correct_label dist=0"
        " queries=0\n"
        "trial=1 seed=4839782808629744545 won=0 reason=correct_label dist=0"
        " queries=0\n"
        "trial=2 seed=11769803791402734189 won=0 reason=correct_label dist=0"
        " queries=1024\n"),
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_cli_game_commands_pinned_bytes(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert run_cli([command, "--trials", "3", "--seed", "11",
                    "--out", str(out)]) == 0
    results, transcript = PINNED[command]
    assert (out / "results.csv").read_text() == results
    assert (out / "transcript.log").read_text() == transcript
    # stdout repeats the rows without the header
    assert capsys.readouterr().out == results.split("\n", 1)[1]


# Sizes that would run for minutes or ask for tens of GB if their cap
# broke.  The matrix runs these rows in a child process under a timeout and
# an address-space limit, so a regression fails instead of hanging the
# suite or exhausting memory.
SYN_TABLE_PROBE = "c3.hlen = 64; c3.slen = 64"
CAP_PROBES = [
    # the largest code the config can derive, RS(8704,512) over GF(2^16),
    # the widest that divides its key and the first whose field holds it:
    # a syndrome table of 71.3 million entries, 570 MB as int64
    ("c3", SYN_TABLE_PROBE, 2),
    # formulas of about 5.4 million and 13.5 million variables
    ("np-forge", "forge.stage = s; forge.reps = 1000; forge.count = 1", 2),
    ("np-forge", "forge.stage = s2; forge.k = 100000; forge.count = 1", 2),
    # 10^11 queries: days of guessing in one bounded game
    ("c3", "c3.query_budget = 100000000000", 2),
    ("separation", "attacker.query_budget = 100000000000", 2),
    # a 10^12-bit instance; and the adversarial-risk oracle's binomials at
    # d = 10^6 + 1 and 10^7 + 1, which took 49 s and over 120 s to sum
    ("risk", "problem.d = 1000000000001", 2),
    ("adv-risk", "problem.d = 1000000000001", 2),
    ("separation", "problem.d = 1000001", 2),
    ("separation", "problem.d = 10000001", 2),
    # 10^12 trials or bundles: no output for days (config.MAX_TRIALS)
    ("risk", "--trials 1000000000000", 2),
    ("np-forge", "forge.count = 1000000000000", 2),
]

# (command, config text, exit code): each command checks exactly the
# settings it reads, and a bad value it reads exits 2, never a traceback
VALIDATION_MATRIX = [
    *CAP_PROBES,
    # settings the command never reads
    ("c3", "problem.d = 14", 0),
    ("oracle-check", "problem.d = 14", 0),
    ("oracle-check", "attacker.name = sneaky", 0),
    ("np-forge", "attacker.name = sneaky; forge.count = 2; forge.d = 9", 0),
    ("np-forge", "forge.reps = 0; forge.count = 2; forge.d = 9", 0),
    ("separation", "attacker.name = bounded_c3; c3.hlen = 100", 0),
    ("adv-risk", "ots.hlen = 8", 0),
    ("c3", "attacker.query_budget = -3", 0),
    ("separation", "c3.query_budget = -5", 0),
    # parameter errors deep in a module
    ("adv-risk", "attacker.name = bounded_c1; ots.hlen = 0", 2),
    ("c3", "c3.slen = 0", 2),
    # degenerate OTS: no invalid signature to sample for a 0-labelled slot
    # (its key code is RS(3,1) over GF(2^2))
    ("c3", "c3.hlen = 1; c3.slen = 1", 2),
    ("adv-risk", "attacker.name = unbounded_c3; c3.hlen = 1; c3.slen = 1",
     2),
    # settings the command reads
    ("adv-risk", "attacker.name = sneaky", 2),
    # a key code's symbols are the narrowest that divide the key width
    # 2*hlen^2 and whose field holds the code: RS(268,8)/GF(2^16) here,
    # RS(63,3)/GF(2^6) for an 18-bit key; a 2-bit key has only GF(2^2),
    # whose 3 symbols correct one flip
    ("adv-risk", "attacker.name = bounded_c1; ots.hlen = 8", 0),
    ("adv-risk", "attacker.name = bounded_c3; c3.hlen = 3", 0),
    ("adv-risk", "attacker.name = bounded_c1; ots.hlen = 1", 2),
    ("c3", "c3.hlen = 1; c3.slen = 2", 2),
    ("risk", "problem.d = 14", 2),
    ("np-forge", "forge.reps = 0; forge.count = 2; forge.d = 9; "
     "forge.stage = s", 2),
    ("np-forge", "forge.var_cap = 10000; forge.count = 2; forge.d = 9", 2),
    ("np-forge", "forge.count = 2; forge.d = 10", 2),
    ("np-forge", "forge.count = 2; forge.d = 65", 2),
    ("c3", "c3.query_budget = -5", 2),
    ("adv-risk", "attacker.name = bounded_c1; attacker.query_budget = -1", 2),
    ("adv-risk", "attacker.name = identity; problem.b = -1", 2),
    ("adv-risk", "attacker.name = greedy; problem.b = -1", 2),
    ("separation", "problem.b = -1", 2),
    ("adv-risk", "attacker.name = bounded_c3x", 2),
    # one-word hash bounds, and the preimage-table cap on unbounded forgers
    ("adv-risk", "attacker.name = bounded_c1; ots.hlen = 4; ots.slen = 65",
     2),
    ("adv-risk", "attacker.name = bounded_c1; ots.hlen = 65; ots.slen = 1",
     2),
    ("separation", "ots.hlen = 8; ots.slen = 21", 2),
    ("adv-risk", "attacker.name = bounded_c1; ots.hlen = 8; ots.slen = 21",
     0),
    # bad paths; a "--flag value" part overrides the default flag
    ("risk", "--config {tmp}/missing.cfg", 2),
    ("risk", "--config {tmp}", 2),
    ("risk", "--out {tmp}/c.cfg", 2),
]


@pytest.mark.parametrize("command,text,code", VALIDATION_MATRIX)
def test_cli_validates_exactly_what_it_reads(tmp_path, command, text, code):
    parts = text.split("; ")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(p + "\n" for p in parts if not p.startswith("--")))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command in ("adv-risk", "separation", "c3"):
        argv += ["--trials", "2"]
    # argparse keeps the last value of a repeated flag
    argv += [word.format(tmp=tmp_path) for p in parts if p.startswith("--")
             for word in p.split()]
    if (command, text, code) in CAP_PROBES:
        err = "syndrome table cap" if text == SYN_TABLE_PROBE else ""
        assert run_cli_capped(argv, err) == code
        assert not (tmp_path / "o").exists()
    else:
        assert run_cli(argv) == code
    if code:
        assert not (tmp_path / "o" / "results.csv").exists()


# an error from a derived key code names the settings that fixed the code
# and the code itself, not n_sym, which is no longer a setting
@pytest.mark.parametrize("command,text,names", [
    ("c3", SYN_TABLE_PROBE,
     ("c3.hlen = 64", "c3.slen = 64", "RS(8704,512)", "syndrome table cap")),
    ("separation", "problem.b = 40000",
     ("ots.hlen = 16", "ots.slen = 16", "problem.b = 40000",
      "RS(80544,32)", "field bound 65535")),
])
def test_derived_code_error_names_its_settings(tmp_path, capsys, command,
                                               text, names):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text.replace("; ", "\n") + "\n")
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(cfg), "--trials", "2",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert "n_sym" not in err
    assert not out.exists()


def test_trial_cap_is_inclusive(tmp_path, capsys):
    # the cap itself is a valid count (validate alone: no trial runs)
    cfg = ExperimentConfig()
    cfg.trials = cfg.forge.count = config.MAX_TRIALS
    cfg.validate("risk")
    cfg.validate("np-forge")
    out = tmp_path / "o"
    assert run_cli(["separation", "--trials", str(config.MAX_TRIALS + 1),
                    "--out", str(out)]) == 2
    assert f"trials must be in 1..{config.MAX_TRIALS}" in \
        capsys.readouterr().err
    assert not out.exists()


# The settings each command reads, with the config lines that make it read
# them; the requested work (trials, forge.count) stays at 1 and is not
# varied.  adv-risk reads the settings of attacker.name's game.
_C1_KEYS = ("problem.d", "problem.alpha", "problem.b", "seed")
_OTS_KEYS = ("ots.hlen", "ots.slen")
_C3_KEYS = ("c3.hlen", "c3.slen", "seed")
_FORGE = "forge.count = 1\n"
KEYS_READ = [
    ("risk", "", ("problem.d", "problem.alpha", "seed")),
    ("adv-risk", "attacker.name = identity\n", _C1_KEYS),
    ("adv-risk", "attacker.name = greedy\n", _C1_KEYS),
    ("adv-risk", "attacker.name = bounded_c1\n",
     _C1_KEYS + _OTS_KEYS + ("attacker.query_budget",)),
    ("adv-risk", "attacker.name = unbounded_c1\n", _C1_KEYS + _OTS_KEYS),
    ("adv-risk", "attacker.name = bounded_c3\n",
     _C3_KEYS + ("c3.query_budget",)),
    ("adv-risk", "attacker.name = unbounded_c3\n", _C3_KEYS),
    ("separation", "", _C1_KEYS + _OTS_KEYS + ("attacker.query_budget",)),
    ("c3", "", _C3_KEYS + ("c3.query_budget",)),
    ("np-forge", _FORGE, ("forge.d", "forge.b", "forge.k", "forge.tau",
                          "forge.stage", "problem.alpha", "seed")),
    ("np-forge", _FORGE + "forge.stage = s2\n", ("forge.k", "forge.tau")),
    ("np-forge", _FORGE + "forge.stage = s\n", ("forge.reps",)),
]
EXTREME_VALUES = ("0", "-1", str(1 << 31), str(1 << 63), str(10**12), "nan",
                  "inf", "1e308", "word")
# 52 (command, key) pairs times 9 values: a grid of 468 cases
EXTREME_CASES = [(command, base + f"{key} = {value}\n")
                 for command, base, keys in KEYS_READ for key in keys
                 for value in EXTREME_VALUES]


# a bounded sample of the grid per run; each case is a child process
@settings(max_examples=50)
@given(st.sampled_from(EXTREME_CASES))
def test_cli_survives_extreme_values(tmp_path_factory, case):
    command, text = case
    tmp = tmp_path_factory.mktemp("extreme")
    (tmp / "c.cfg").write_text(text)
    argv = [command, "--config", str(tmp / "c.cfg"), "--out",
            str(tmp / "o"), "--trials", "1"]
    assert run_cli_capped(argv) in (0, 2, 3)


def test_np_forge_bad_reps_makes_no_out_dir(tmp_path):
    # forge.reps is checked when bundle 0 is built, before --out is made
    cfg = tmp_path / "c.cfg"
    cfg.write_text("forge.stage = s\nforge.reps = 0\nforge.count = 2\n"
                   "forge.d = 9\n")
    out = tmp_path / "o"
    assert run_cli(["np-forge", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


# forge.d is checked by the base problem and the circuit np-forge builds
@pytest.mark.parametrize("d", [10, 0, -1, 50003, 10**12, 65])
def test_np_forge_bad_d_makes_no_out_dir(tmp_path, d):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"forge.count = 2\nforge.d = {d}\n")
    out = tmp_path / "o"
    assert run_cli(["np-forge", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_attacker_breaking_the_length_protocol_exits_3(tmp_path, capsys,
                                                       monkeypatch):
    # one bit short of the instance: an invariant violation, not a traceback
    def short(x, y, rng, counters):
        return x.extract(0, x.length - 1)

    monkeypatch.setattr(cli.atk, "identity_attacker",
                        lambda: cli.atk.Attacker("identity", short, 0))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("attacker.name = identity\n")
    out = tmp_path / "o"
    assert run_cli(["adv-risk", "--config", str(cfg), "--trials", "3",
                    "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "invariant violation: attacker returned length 14, expected 15"]
    assert not out.exists()


# a bad setting of a command's later game, and a config that builds every
# earlier game
@pytest.mark.parametrize("command,text", [
    ("separation", "ots.hlen = 8; ots.slen = 21"),
    ("c3", "c3.query_budget = -5"),
    ("c3", "c3.hlen = 1; c3.slen = 1"),
])
def test_cli_builds_every_game_before_any_trial(tmp_path, monkeypatch,
                                                command, text):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before every game was built")

    monkeypatch.setattr(cli, "play_trials", no_trials)
    monkeypatch.setattr(cli, "estimate_risk", no_trials)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(p + "\n" for p in text.split("; ")))
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(cfg), "--trials", "2",
                    "--out", str(out)]) == 2
    assert not (out / "results.csv").exists()
    assert not (out / "transcript.log").exists()
