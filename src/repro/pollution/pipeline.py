"""The controlled-corruption pipeline (fig. 2's "data pollution" stage).

Applies a sequence of polluters to a copy of the clean table and returns
the dirty table together with the ground-truth :class:`PollutionLog`. The
*pollution factor* multiplies every component's activation probability —
the common knob swept in figure 5 ("we vary the activation probabilities
of the employed pollution procedures by multiplying them with a common
pollution factor").
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.errors import InputError
from repro.pollution.log import PollutionLog
from repro.pollution.polluters import (
    Duplicator,
    Limiter,
    NullValuePolluter,
    Polluter,
    Switcher,
    WrongValuePolluter,
)
from repro.schema.table import Table

__all__ = ["PollutionPipeline", "default_polluters"]


def default_polluters(
    *,
    wrong_value: float = 0.02,
    null_value: float = 0.01,
    limiter: float = 0.01,
    switcher: float = 0.005,
    duplicator: float = 0.004,
    delete_probability: float = 0.3,
) -> list[Polluter]:
    """The "variety of pollution procedures with different activation
    probabilities" used by the sec. 6.1 experiments.

    The value-level probabilities are per cell, the record-level ones per
    record; with the defaults roughly 15–20 % of the records of an
    8-attribute table carry at least one corruption at factor 1.
    """
    polluters: list[Polluter] = []
    if wrong_value > 0:
        polluters.append(WrongValuePolluter(wrong_value))
    if null_value > 0:
        polluters.append(NullValuePolluter(null_value))
    if limiter > 0:
        polluters.append(Limiter(limiter))
    if switcher > 0:
        polluters.append(Switcher(switcher))
    if duplicator > 0:
        polluters.append(
            Duplicator(duplicator, delete_probability=delete_probability)
        )
    return polluters


class PollutionPipeline:
    """Applies polluters in order, with a common pollution factor.

    The duplicator (structural changes) is always applied last so that the
    value-level polluters operate on stable row indices; the log is
    re-indexed by the duplicator itself.
    """

    def __init__(self, polluters: Sequence[Polluter], *, factor: float = 1.0):
        if factor < 0:
            raise InputError("pollution factor must be non-negative")
        self.factor = factor
        structural = [p for p in polluters if isinstance(p, Duplicator)]
        value_level = [p for p in polluters if not isinstance(p, Duplicator)]
        self.polluters: list[Polluter] = value_level + structural

    def apply(
        self, table: Table, rng: random.Random
    ) -> tuple[Table, PollutionLog]:
        """Return ``(dirty_copy, log)``; the input table is left unchanged."""
        dirty = table.copy()
        log = PollutionLog(table.n_rows)
        for polluter in self.polluters:
            polluter.pollute(dirty, rng, log, self.factor)
        return dirty, log

    def __repr__(self) -> str:
        return f"PollutionPipeline({self.polluters!r}, factor={self.factor})"
