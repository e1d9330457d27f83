"""The failure contract: :class:`InputError`.

Input from outside the program — a stored table, a schema, model,
pollution-log or monitor-state file, a command-line flag, a request
body — is either usable or refused where it enters the program, with an
:class:`InputError` whose ``str()`` is one line naming what is wrong
(the location, the line or rowid, and the attribute, where known).

Each front end translates it in one place: ``repro.cli.main`` prints the
one ``error:`` line and exits 1, and the audit service's request handler
answers HTTP 400. Every other exception is a fault of the program, so it
stays a traceback or a 500 instead of being blamed on the input.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["InputError", "InputKeyError", "decoding"]


class InputError(ValueError):
    """Input from outside the program is unusable; ``str(exc)`` is one
    line naming what is wrong and where."""


class InputKeyError(InputError, KeyError):
    """An :class:`InputError` for a document field that is missing or a
    name the document's schema does not hold. It is also a
    :class:`KeyError`, which the document decoders raised for these
    before the contract existed."""

    __str__ = Exception.__str__  # KeyError's own would quote the message


@contextmanager
def decoding(what: str) -> Iterator[None]:
    """Decode a JSON document from outside the program inside this block.

    The errors a malformed document raises while it is decoded leave as
    :class:`InputError` prefixed with *what*: a missing field (a
    ``KeyError``) as :class:`InputKeyError`, a value of the wrong type or
    range as :class:`InputError`. An :class:`InputError` raised inside
    passes unchanged.
    """
    try:
        yield
    except InputError:
        raise
    except KeyError as exc:
        raise InputKeyError(f"{what}: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise InputError(f"{what}: {exc}") from exc
