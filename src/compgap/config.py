"""Experiment configuration: defaults, a line-oriented parser, validation.

The file format is `key = value` with '#' comments; keys are dotted paths
into the config groups below, values are integers, decimals, or bare words.
Unknown keys are errors, missing keys take the defaults, and the defaults
are the worked separation configuration, so an empty file runs everything
out of the box.  Derived, not set: C3's instance length d, and each key
code, the smallest that corrects its game's budget, over the narrowest
symbols that hold it.

`validate(kind)` checks the plain settings of command `kind`: the seed,
the trial count (at most MAX_TRIALS, so that no command runs for days
without a word) and `np-forge`'s settings.  A parameter object checks
itself when a command builds it, before anything is written; a game command
builds all its games in `cli` before its first trial.  A failed check
raises ConfigError, which the CLI reports with exit code 2.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .base_problems import MajorityNoiseParams
from .ecc import EccParams
from .errors import ConfigError, ParseError
from .ots import OtsParams

#: Most trials (`trials`, `--trials`) or np-forge bundles (`forge.count`)
#: one command runs: 100 times the largest count the experiment scripts
#: ask for (scripts/run_all.py's 10^5).
MAX_TRIALS = 10_000_000


@dataclass(slots=True)
class ProblemConfig:
    d: int = 15
    alpha: float = 0.05
    b: int = 2


@dataclass(slots=True)
class OtsConfig:
    hlen: int = 16
    slen: int = 16


@dataclass(slots=True)
class C3Config:
    """Parameters of the no-detection construction.  One code carries both
    the base instance and the verification key, so the instance length d
    and the code's data width both equal the key width 2*hlen^2."""

    hlen: int = 8
    slen: int = 10
    query_budget: int = 1024

    @property
    def d(self) -> int:
        return 2 * self.hlen * self.hlen


@dataclass(slots=True)
class AttackerConfig:
    name: str = "greedy"
    query_budget: int = 1024


@dataclass(slots=True)
class ForgeConfig:
    d: int = 11
    b: int = 2
    k: int = 40
    tau: float = 0.0  # 0 means "midway between alpha and the analytic rate"
    reps: int = 1
    count: int = 20
    stage: str = "s1"


def _key_code(hlen: int, budget: int, fixed_by: str) -> EccParams:
    """The key code of a game: the narrowest symbols, of 2..16 bits, that
    divide the 2*hlen^2-bit verification key into k_sym symbols and hold a
    code whose t_max is `budget`, the bits its game's tamper may flip
    (b + sig_bits for C1, sig_bits for C3).  `fixed_by` names the settings
    behind these, for the error when no width holds the code."""
    key_bits = 2 * hlen * hlen
    for width in range(2, 17):
        if key_bits % width == 0:  # 2 always does
            k = key_bits // width
            try:
                return EccParams(k, k + 2 * budget, width)
            except ConfigError as exc:
                error = exc
    raise ConfigError(f"{fixed_by} derive the key code {error}")


@dataclass(slots=True)
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    ots: OtsConfig = field(default_factory=OtsConfig)
    c3: C3Config = field(default_factory=C3Config)
    attacker: AttackerConfig = field(default_factory=AttackerConfig)
    forge: ForgeConfig = field(default_factory=ForgeConfig)
    trials: int = 1000
    seed: int = 42
    out: str = "out"

    # typed views onto the module-level parameter objects; these run the
    # modules' own validation
    def problem_params(self) -> MajorityNoiseParams:
        return MajorityNoiseParams(self.problem.d, self.problem.alpha)

    def ots_params(self) -> OtsParams:
        return OtsParams(self.ots.hlen, self.ots.slen)

    def ecc_params(self) -> EccParams:
        o = self.ots
        return _key_code(o.hlen, self.problem.b + o.hlen * o.slen,
                         f"ots.hlen = {o.hlen}, ots.slen = {o.slen} and "
                         f"problem.b = {self.problem.b}")

    def c3_ots_params(self) -> OtsParams:
        return OtsParams(self.c3.hlen, self.c3.slen)

    def c3_ecc_params(self) -> EccParams:
        c = self.c3
        return _key_code(c.hlen, c.hlen * c.slen,
                         f"c3.hlen = {c.hlen} and c3.slen = {c.slen}")

    def validate(self, kind: str) -> None:
        """Check the settings command `kind` reads outside its games."""
        if kind in ("report", "oracle-check"):
            return  # report reads only `out`, oracle-check nothing
        if self.seed < 0 or self.seed >= 1 << 64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if kind == "np-forge":
            # forge.d is checked by the problem and circuit np-forge builds
            if self.forge.stage not in ("s1", "s2", "s"):
                raise ConfigError("forge.stage must be s1, s2, or s")
            if not 0 <= self.forge.tau <= 1:
                raise ConfigError("forge.tau must be in [0, 1]")
            # forge.reps is read, and checked, by stage s alone
            if self.forge.k < 1:
                raise ConfigError("forge.k must be >= 1")
            _check_count("forge.count", self.forge.count)
            return
        _check_count("trials", self.trials)


def _check_count(name: str, count: int) -> None:
    if not 1 <= count <= MAX_TRIALS:
        raise ConfigError(f"{name} must be in 1..{MAX_TRIALS}, got {count}")


# every settable key: a top-level field, or "<group>.<field>"
_KEYS = frozenset(("trials", "seed", "out")).union(
    f"{group}.{f.name}"
    for group in ("problem", "ots", "c3", "attacker", "forge")
    for f in dataclasses.fields(getattr(ExperimentConfig(), group)))


def _coerce(value: str, target_type: type, key: str, line_no: int):
    try:
        if target_type is int:
            return int(value)
        if target_type is float:
            return float(value)
        return value
    except ValueError:
        raise ParseError(
            f"value {value!r} for {key} is not a {target_type.__name__}",
            line_no)


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if not value:
            raise ParseError(f"missing value for {key!r}", line_no)
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", line_no)
        group_name, _, name = key.rpartition(".")
        group = getattr(cfg, group_name) if group_name else cfg
        setattr(group, name,
                _coerce(value, type(getattr(group, name)), key, line_no))
    return cfg
