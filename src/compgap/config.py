"""Experiment configuration: defaults, a line-oriented parser, validation.

The file format is `key = value` with '#' comments; keys are dotted paths
into the config groups below, values are integers, decimals, or bare words.
Unknown keys are errors, missing keys take the defaults, and the defaults
are the worked separation configuration, so an empty file runs everything
out of the box.  What the key width fixes is derived, not set: a key code's
k_sym and C3's instance length d.

`validate(kind)` checks the plain settings of command `kind`: the seed,
the trial count and `np-forge`'s settings.  A parameter object checks
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


@dataclass(slots=True)
class ProblemConfig:
    d: int = 15
    alpha: float = 0.05
    b: int = 2


@dataclass(slots=True)
class OtsConfig:
    hlen: int = 16
    slen: int = 16
    hash_rounds: int = 2


@dataclass(slots=True)
class EccConfig:
    n_sym: int = 640
    bits_per_symbol: int = 16


@dataclass(slots=True)
class C3Config:
    """Parameters of the no-detection construction.  One code carries both
    the base instance and the verification key, so the instance length d
    and the code's data width both equal the key width 2*hlen^2."""

    hlen: int = 8
    slen: int = 10
    n_sym: int = 40
    bits_per_symbol: int = 8
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


def _key_code(name: str, hlen: int, group: EccConfig | C3Config) -> EccParams:
    """The code of config group `name`, whose data width is one
    2*hlen^2-bit verification key: k_sym = 2*hlen^2 / bits_per_symbol."""
    key_bits, width = 2 * hlen * hlen, group.bits_per_symbol
    if width < 1 or key_bits % width:
        raise ConfigError(f"{name}.bits_per_symbol must divide the "
                          f"{key_bits}-bit verification key, got {width}")
    return EccParams(key_bits // width, group.n_sym, width)


@dataclass(slots=True)
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
        return _key_code("ecc", self.ots.hlen, self.ecc)

    def c3_ots_params(self) -> OtsParams:
        return OtsParams(self.c3.hlen, self.c3.slen)

    def c3_ecc_params(self) -> EccParams:
        return _key_code("c3", self.c3.hlen, self.c3)

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
            if min(self.forge.k, self.forge.count) < 1:
                raise ConfigError("forge.k/count must be >= 1")
            return
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")


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
