"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for everything raised deliberately by this package."""


class ParseError(EngineError):
    """Malformed word, point, rule, or system description."""


def require_int(value, least: int, what: str) -> None:
    """Refuse anything but an int >= least, a bool included, naming the value."""
    if type(value) is not int or value < least:
        raise ParseError(f"{what} needs an int >= {least}, not {value!r}")


class NotInDomain(EngineError):
    """A point was fed to a partial map outside its domain."""


class DepthTooSmall(EngineError):
    """A requested uniform depth cannot resolve the sets or maps involved."""


class LevelRequired(EngineError):
    """An operation on a generated action needs an explicit truncation level."""


class SupportViolation(EngineError):
    """A function's support escapes the clopen set it must live in."""


class BaseNotInDomain(EngineError):
    """A basic-open probe was given a base set outside the admissible domain."""


class NoWitness(EngineError):
    """No non-clopen witness is available for the requested construction."""


class CapExceeded(EngineError):
    """A search exhausted its cap without reaching the required stage."""


class NotStabilized(EngineError):
    """Partition refinement cannot stabilize at any uniform depth."""
