"""Exception hierarchy shared across the toolkit.

``InputError`` subclasses signal problems with user-supplied files or
arguments; the CLI maps them to exit code 2 and never prints a traceback
for them. ``load_json`` reads every JSON input document, so that each way
one can fail to load becomes such an error.
"""

import json
import sys
from typing import Any, Callable


class ConformanceError(Exception):
    """Base class for all toolkit errors."""


class InputError(ConformanceError):
    """A user-supplied input (file, flag, config) is invalid."""


def clip(text: str) -> str:
    """``text`` cut to 40 characters and an ellipsis, to echo in a message."""
    return text if len(text) <= 40 else text[:40] + "..."


def too_many_digits() -> str:
    """Why ``int()`` refused a run of digits: its length."""
    return f"a number has more than {sys.get_int_max_str_digits()} digits"


def load_json(text: str, error: Callable[[Exception], InputError]) -> Any:
    """``json.loads``, raising ``error(exc)`` for a document it cannot load.

    ``exc`` is a ``JSONDecodeError``, the ``RecursionError`` of deep nesting,
    or, for an integer with more digits than ``int()`` converts, a
    ``ValueError`` that says so in fewer words than Python's own.
    """
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(exc) from exc
    except ValueError as exc:
        raise error(ValueError(too_many_digits())) from exc


# static model parsing

class MalformedJson(InputError):
    pass


class MissingField(InputError):
    def __init__(self, path: str):
        super().__init__(f"missing required field: {path}")


class DuplicateService(InputError):
    def __init__(self, name: str):
        super().__init__(f"duplicate service after normalization: {clip(name)!r}")


class UnknownEndpoint(InputError):
    def __init__(self, flow_index: int, name: str):
        super().__init__(f"flow #{flow_index}: endpoint {clip(name)!r} is not a declared service")
        self.flow_index = flow_index
        self.name = name


class EmptyAfterNormalization(InputError):
    def __init__(self, raw: str):
        super().__init__(f"name {clip(raw)!r} is empty after normalization")


# event log parsing

class MalformedLine(InputError):
    def __init__(self, line_no: int, reason: str = ""):
        msg = f"malformed event log line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.line_no = line_no


class MissingEventField(InputError):
    def __init__(self, line_no: int, field: str):
        super().__init__(f"event log line {line_no}: missing field {field!r}")
        self.line_no = line_no
        self.field = field


# state machines

class MalformedDot(InputError):
    def __init__(self, line_no: int, reason: str = ""):
        msg = f"malformed dot at line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.line_no = line_no


class NondeterministicTransition(InputError):
    def __init__(self, state: int, symbol: str):
        super().__init__(f"state {clip(str(state))} has two transitions on {clip(symbol)!r}")


class UnreachableState(InputError):
    def __init__(self, state: int):
        super().__init__(f"state {clip(str(state))} is unreachable from the initial state")


class MalformedSymbol(InputError):
    def __init__(self, machine_name: str, symbol: str):
        super().__init__(
            f"machine {clip(machine_name)!r}: malformed transition symbol {clip(symbol)!r}")


# learning / evaluation

class EmptyTraceSet(InputError):
    pass


class AlphabetTooSmall(InputError):
    pass


class CannotAvoidPositives(InputError):
    """Every single-symbol mutant of the trace collides with a training trace: the
    log is too uniform to evaluate, like one with too few traces or symbols."""


class TooFewTraces(InputError):
    pass


# interpretation

class NoInvolvedTransitions(ConformanceError):
    def __init__(self, a: str, b: str):
        super().__init__(f"no transitions between {a!r} and {b!r} in the machine")


# scenario generation

class InfeasibleSpec(InputError):
    pass
