"""Rule-compliant artificial data generation (sec. 4.1.4).

*"Given a schema for the target table and a rule set, a number of records
has to be created that follow this rule set. This is done by selecting
values for each attribute according to independent probability
distributions and successively adjusting these guesses by rules that are
violated."*

The generator:

1. draws a start record — nominal attributes covered by the optional
   Bayesian network are sampled jointly, everything else independently
   from its per-attribute start distribution (default uniform);
2. repairs the record: while some rule is violated, an adjustment is
   computed with the *current record as base* (minimal change, see
   :func:`repro.logic.find_model`) and merged into the record. The
   adjustment usually *satisfies the consequence*; with a configurable
   probability it *falsifies the premise* instead. The second strategy is
   essential: Def. 6's pairwise naturalness check intentionally does not
   exclude rule sets in which two rules with incomparable premises co-fire
   on one record with contradictory consequences (the paper notes the full
   entailment check would be too expensive) — such conflicts can only be
   resolved by deactivating one premise;
3. verifies the final record against all rules; if the repair loop fails
   to converge the record is redrawn from scratch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.errors import InputError
from repro.generator.bayes import BayesianNetwork
from repro.generator.distributions import Distribution, Uniform
from repro.logic.dnf import DnfExplosionError
from repro.logic.formulas import conjoin
from repro.logic.negation import negate
from repro.logic.rules import Rule
from repro.logic.satisfiability import find_model
from repro.schema.schema import Schema
from repro.schema.table import Table
from repro.schema.types import Value

__all__ = ["GenerationError", "GenerationStats", "TestDataGenerator"]


class GenerationError(RuntimeError):
    """Raised when a record cannot be made rule-compliant."""


@dataclass
class GenerationStats:
    """Bookkeeping of the repair loop (useful for generator diagnostics)."""

    records: int = 0
    repairs: int = 0
    resamples: int = 0

    def reset(self) -> None:
        self.records = self.repairs = self.resamples = 0


class TestDataGenerator:
    """The paper's rule-pattern-based artificial test data generator.

    (The class name follows the paper's "test data generator"; the
    ``__test__`` marker below tells pytest it is not a test case.)

    Parameters
    ----------
    schema:
        Target relation schema.
    rules:
        A (preferably natural) TDG rule set the data must comply with.
    distributions:
        Per-attribute start distributions (default: uniform). Attributes
        covered by *bayes_net* ignore their entry here.
    bayes_net:
        Optional multivariate start distribution over a subset of the
        nominal attributes.
    null_probabilities:
        Per-attribute probability of starting with a null value (applied
        before rule repair; repairs may overwrite nulls again).
    max_repair_passes:
        Repair iterations per record before redrawing it.
    max_record_attempts:
        Full redraws per record before giving up with
        :class:`GenerationError`.
    premise_falsification_probability:
        Retained knob (0–1) biasing how eagerly the repair loop falls back
        to premise falsification when joint consequence repair stalls.
    """

    __test__ = False  # not a pytest case despite the Test* name

    def __init__(
        self,
        schema: Schema,
        rules: Sequence[Rule],
        *,
        distributions: Optional[Mapping[str, Distribution]] = None,
        bayes_net: Optional[BayesianNetwork] = None,
        null_probabilities: Optional[Mapping[str, float]] = None,
        max_repair_passes: int = 24,
        max_record_attempts: int = 20,
        premise_falsification_probability: float = 0.2,
    ):
        self.schema = schema
        self.rules = list(rules)
        for rule in self.rules:
            rule.validate(schema)
        self.distributions = dict(distributions or {})
        for name in self.distributions:
            schema.attribute(name)
        self.bayes_net = bayes_net
        self.null_probabilities = dict(null_probabilities or {})
        for name, probability in self.null_probabilities.items():
            schema.attribute(name)
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"null probability of {name!r} must lie in [0, 1]")
        if max_repair_passes < 1 or max_record_attempts < 1:
            raise ValueError("repair/attempt limits must be positive")
        if not 0.0 <= premise_falsification_probability <= 1.0:
            raise ValueError("premise_falsification_probability must lie in [0, 1]")
        self.max_repair_passes = max_repair_passes
        self.max_record_attempts = max_record_attempts
        self.premise_falsification_probability = premise_falsification_probability
        self.stats = GenerationStats()
        self._default_distribution = Uniform()

    # -- start records ---------------------------------------------------------

    def _start_record(self, rng: random.Random) -> dict[str, Value]:
        record: dict[str, Value] = {}
        if self.bayes_net is not None:
            record.update(self.bayes_net.sample(rng))
        for attribute in self.schema.attributes:
            if attribute.name in record:
                continue
            null_probability = self.null_probabilities.get(attribute.name, 0.0)
            if attribute.nullable and null_probability and rng.random() < null_probability:
                record[attribute.name] = None
                continue
            distribution = self.distributions.get(
                attribute.name, self._default_distribution
            )
            record[attribute.name] = distribution.sample(attribute, rng)
        return record

    # -- repair loop ------------------------------------------------------------

    def _violations(self, record: Mapping[str, Value]) -> list[Rule]:
        return [rule for rule in self.rules if rule.violated_by(record)]

    def _repair(self, record: dict[str, Value], rng: random.Random) -> bool:
        """Adjust *record* in place until rule-compliant. True on success.

        Min-conflicts strategy: for a randomly chosen violated rule, both
        repair candidates — a model of the consequence and a model of the
        TDG-negated premise, each computed with the current record as base
        — are scored by the number of rule violations they would leave,
        and the better one is applied. This resolves consequence ping-pong
        between co-firing rules that pairwise naturalness cannot exclude.
        """
        for _ in range(self.max_repair_passes):
            violated = self._violations(record)
            if not violated:
                return True
            self.stats.repairs += 1
            # first choice: satisfy the consequences of ALL violated rules
            # jointly — solving them one by one ping-pongs when consequences
            # share attributes
            joint_model = self._joint_consequence_model(violated, record, rng)
            if joint_model is not None:
                trial = dict(record)
                trial.update(joint_model)
                if len(self._violations(trial)) < len(violated):
                    record.clear()
                    record.update(trial)
                    continue
            # joint consequences unsatisfiable (or unhelpful): deactivate a
            # random violated rule by falsifying its premise
            rule = violated[rng.randrange(len(violated))]
            premise_model = find_model(
                negate(rule.premise), self.schema, rng, base=record
            )
            if premise_model is None:
                if joint_model is None:
                    return False  # neither side repairable — redraw the record
                record.update(joint_model)
                continue
            record.update(premise_model)
        return not self._violations(record)

    def _joint_consequence_model(
        self,
        violated: Sequence[Rule],
        record: Mapping[str, Value],
        rng: random.Random,
    ) -> Optional[dict[str, Value]]:
        """A minimal-change model of the conjoined violated consequences."""
        try:
            target = conjoin([rule.consequence for rule in violated])
            return find_model(target, self.schema, rng, base=record)
        except DnfExplosionError:
            # pathological disjunction pile-up: fall back to one consequence
            rule = violated[rng.randrange(len(violated))]
            return find_model(rule.consequence, self.schema, rng, base=record)

    def generate_record(self, rng: random.Random) -> dict[str, Value]:
        """One record complying with every rule."""
        for _ in range(self.max_record_attempts):
            record = self._start_record(rng)
            if self._repair(record, rng):
                self.stats.records += 1
                return record
            self.stats.resamples += 1
        raise GenerationError(
            f"could not generate a rule-compliant record within "
            f"{self.max_record_attempts} attempts; the rule set may be "
            f"(pairwise-undetectably) inconsistent"
        )

    def generate(self, n_records: int, rng: random.Random) -> Table:
        """A table of *n_records* rule-compliant records."""
        if n_records < 0:
            raise InputError("n_records must be non-negative")
        table = Table(self.schema)
        names = self.schema.names
        for _ in range(n_records):
            record = self.generate_record(rng)
            table.rows.append([record[name] for name in names])
        return table
