"""Exception types shared across the package."""


class CompgapError(Exception):
    """Base class for all package-specific errors."""


class LengthError(CompgapError):
    """Two bit strings of different lengths were compared position-wise."""


class FormatError(CompgapError):
    """A key, signature, or codeword has the wrong shape."""


class AttackerProtocolError(CompgapError):
    """An attacker returned an instance of the wrong length."""


class PreimageNotFound(CompgapError):
    """A preimage search exhausted its space or query budget."""


class DecodeFailure(CompgapError):
    """Codeword corruption beyond the correction radius."""


class ConfigError(CompgapError):
    """Parameter combination violates a module precondition."""


class SamplerError(CompgapError):
    """A rejection sampler exceeded its attempt cap."""


class ParseError(CompgapError):
    """Malformed config text."""

    def __init__(self, message, line_no=None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class InvariantViolation(CompgapError):
    """A runtime invariant failed mid-experiment."""
