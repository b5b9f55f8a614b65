"""Experiment configuration: defaults, a line-oriented parser, validation.

The file format is `key = value` with '#' comments; keys are dotted paths
into the config groups below, values are integers, decimals, or bare words.
Unknown keys are errors, missing keys take the defaults, and the defaults
are the worked separation configuration, so an empty file runs everything
out of the box.

`validate(kind)` checks the settings of command `kind` that are not a
game's: the seed, the trial count, `risk`'s problem and `np-forge`'s
settings.  A game command checks its games by building them in `cli`, all
before its first trial.  A failed check raises ConfigError, which the CLI
reports with exit code 2.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .base_problems import MajorityNoiseParams
from .ecc import EccParams
from .errors import ConfigError, ParseError
from .ots import OtsParams


@dataclass
class ProblemConfig:
    d: int = 15
    alpha: float = 0.05
    b: int = 2


@dataclass
class OtsConfig:
    hlen: int = 16
    slen: int = 16
    hash_rounds: int = 2


@dataclass
class EccConfig:
    k_sym: int = 32
    n_sym: int = 640
    bits_per_symbol: int = 16


@dataclass
class C3Config:
    """Parameters of the no-detection construction; the shared code must
    carry both the base instance and the verification key, so d is tied to
    2*hlen^2 and to k_sym*bits_per_symbol."""

    d: int = 128
    hlen: int = 8
    slen: int = 10
    k_sym: int = 16
    n_sym: int = 40
    bits_per_symbol: int = 8
    query_budget: int = 1024


@dataclass
class AttackerConfig:
    name: str = "greedy"
    query_budget: int = 1024


@dataclass
class ForgeConfig:
    d: int = 11
    b: int = 2
    k: int = 40
    tau: float = 0.0  # 0 means "midway between alpha and the analytic rate"
    reps: int = 1
    count: int = 20
    stage: str = "s1"
    var_cap: int = 10000


@dataclass
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    ots: OtsConfig = field(default_factory=OtsConfig)
    ecc: EccConfig = field(default_factory=EccConfig)
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
        return OtsParams(self.ots.hlen, self.ots.slen, self.ots.hash_rounds)

    def ecc_params(self) -> EccParams:
        return EccParams(self.ecc.k_sym, self.ecc.n_sym,
                         self.ecc.bits_per_symbol)

    def c3_ots_params(self) -> OtsParams:
        return OtsParams(self.c3.hlen, self.c3.slen)

    def c3_ecc_params(self) -> EccParams:
        return EccParams(self.c3.k_sym, self.c3.n_sym,
                         self.c3.bits_per_symbol)

    def validate(self, kind: str) -> None:
        """Check the settings command `kind` reads outside its games."""
        if kind in ("report", "oracle-check"):
            return  # report reads only `out`, oracle-check nothing
        if self.seed < 0 or self.seed >= 1 << 64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if kind == "np-forge":
            if self.forge.d % 2 == 0 or self.forge.d < 1:
                raise ConfigError("forge.d must be odd and positive")
            if self.forge.stage not in ("s1", "s2", "s"):
                raise ConfigError("forge.stage must be s1, s2, or s")
            if not 0 <= self.forge.tau <= 1:
                raise ConfigError("forge.tau must be in [0, 1]")
            if min(self.forge.k, self.forge.reps, self.forge.count,
                   self.forge.var_cap) < 1:
                raise ConfigError("forge.k/reps/count/var_cap must be >= 1")
            # the instances np-forge samples; this checks problem.alpha
            MajorityNoiseParams(self.forge.d, self.problem.alpha)
            return
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if kind == "risk":
            self.problem_params()


_GROUPS = ("problem", "ots", "ecc", "c3", "attacker", "forge")
_TOP_FIELDS = ("trials", "seed", "out")


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
        if "." in key:
            group_name, field_name = key.split(".", 1)
            if group_name not in _GROUPS:
                raise ParseError(f"unknown config group {group_name!r}", line_no)
            group = getattr(cfg, group_name)
            if field_name not in {f.name for f in dataclasses.fields(group)}:
                raise ParseError(f"unknown key {key!r}", line_no)
            setattr(group, field_name,
                    _coerce(value, type(getattr(group, field_name)),
                            key, line_no))
        elif key in _TOP_FIELDS:
            setattr(cfg, key,
                    _coerce(value, type(getattr(cfg, key)), key, line_no))
        else:
            raise ParseError(f"unknown key {key!r}", line_no)
    return cfg
