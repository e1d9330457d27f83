"""Shared fixtures for the test suite."""

from __future__ import annotations

import datetime
import random

import pytest
from hypothesis import settings

from repro.schema import Schema, date, nominal, numeric

# ``pytest --hypothesis-profile=deep`` runs the properties that leave their
# example budget to the profile (the tree-grower exactness and audit-cache
# properties) at 1,000 examples; CI's paper-benches job does so.
settings.register_profile("deep", max_examples=1_000, deadline=None)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; reseeded per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def tiny_schema() -> Schema:
    """A small schema with every attribute kind, used across logic tests.

    Domains are deliberately tiny so satisfiability claims can be checked
    against brute-force enumeration.
    """
    return Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y"]),
            numeric("N", 0, 3, integer=True),
            numeric("M", 0, 3, integer=True),
        ]
    )


@pytest.fixture
def full_schema() -> Schema:
    """A richer schema including float and date attributes."""
    return Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y"]),
            numeric("N", 0, 100, integer=True),
            numeric("M", 0, 100, integer=True),
            numeric("F", 0.0, 1.0),
            date("D", datetime.date(2000, 1, 1), datetime.date(2001, 12, 31)),
        ]
    )
