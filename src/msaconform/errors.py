"""``InputError``, the one exception class the toolkit defines, and the helpers
that build its messages.

An ``InputError`` says that a user-supplied file or argument is invalid. Each
is raised where the bad input is read, with the whole message the user sees;
the CLI prints it as one ``error:`` line and exits with code 2, never with a
traceback. ``load_json`` reads every JSON input document, so that each way
one can fail to load becomes such an error.
"""

import json
import sys
from typing import Any, Callable


class InputError(Exception):
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
