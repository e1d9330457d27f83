"""Naive Bayes → SQL compilation (arithmetic log-posterior scoring).

Unlike the finite-group families, a naive Bayes prediction is a product
over every base attribute, so the screen recomputes the log-posterior
arithmetic in SQL: per attribute one *code* alias (category / bin index,
``-1`` for null), then per class one ``lp_c`` alias summing the bound
log-prior and one ``CASE``-selected log-likelihood term per attribute —
in the exact factor order
:meth:`~repro.mining.naive_bayes.NaiveBayesClassifier.predict_batch`
uses, with null contributing ``+ 0.0`` (exact: every partial sum is
strictly negative, so no ``-0.0`` edge exists).

**Parity argument (margin certification).** SQLite evaluates ``+`` on
IEEE doubles left-to-right, matching numpy's per-attribute ``+=``
sequence; the only divergence is that the bound constants come from
``np.log`` over whole tables while numpy logs gathered copies, which can
differ by ~1 ulp per term. With term magnitudes far below 1e3, the
accumulated drift stays far below the 1e-9 certification margin. A row
is **certified clean** only when its observed class holds the strict
log-posterior maximum with a gap above the margin — then the Python
posterior (after exp and normalization, which strictly preserve such
gaps) predicts the observed class, making the error confidence exactly
zero, below any valid threshold. Everything else — ties, near-ties,
nulls that SQL routed differently than expected — is suspect and
re-checked in Python.
"""

from __future__ import annotations

import numpy as np

from repro.compile.expressions import SqlBuilder, cut_count_expr
from repro.compile.screen import FamilyScreen, NotCompilable

__all__ = ["compile_naive_bayes"]

#: Log-posterior gap below which a SQL argmax is not trusted (absorbs
#: the ~ulp-level drift between SQL and numpy accumulation).
_MARGIN = "1e-09"


def compile_naive_bayes(
    builder: SqlBuilder, classifier, config, obs_ref: str, prefix: str
) -> FamilyScreen:
    """Compile a fitted
    :class:`~repro.mining.naive_bayes.NaiveBayesClassifier` into a
    :class:`~repro.compile.screen.FamilyScreen`; its aliases are
    ``prefix + "nb0"``, … (codes), ``prefix + "lp0"``, … (log-posteriors)
    and ``prefix + "mx"``."""
    dataset = classifier.dataset
    priors = classifier.priors
    if dataset is None or priors is None:
        raise NotCompilable("naive Bayes classifier is not fitted")
    n_labels = len(dataset.class_encoder.labels)
    log_priors = np.log(priors)
    terms: list[list[str]] = [
        [builder.bind(float(log_priors[label]))] for label in range(n_labels)
    ]
    code_aliases: list[tuple[str, str]] = []
    for index, (name, likelihood) in enumerate(
        classifier.likelihood_tables().items()
    ):
        encoder = dataset.encoders[name]
        col = builder.col(name)
        n_values = likelihood.shape[1]
        if encoder.categorical:
            arms = "".join(
                f" WHEN {col} = {builder.bind(value)} THEN {code}"
                for code, value in enumerate(encoder.attribute.domain.values)  # type: ignore[attr-defined]
            )
            code_sql = (
                f"CASE WHEN {col} IS NULL THEN -1{arms}"
                f" ELSE {encoder.unknown_code} END"
            )
        else:
            discretizer = classifier.bin_discretizer(name)
            if discretizer is None:
                raise NotCompilable(
                    f"ordered attribute {name!r} has a likelihood table "
                    f"but no discretizer"
                )
            bins = cut_count_expr(builder, encoder.attribute, discretizer.cut_points)
            code_sql = f"CASE WHEN {col} IS NULL THEN -1 ELSE {bins} END"
        alias = f"{prefix}nb{index}"
        code_aliases.append((alias, code_sql))
        code_ref = builder.dialect.quote(alias)
        log_likelihood = np.log(likelihood)
        for label in range(n_labels):
            value_arms = "".join(
                f" WHEN {code} THEN {builder.bind(float(log_likelihood[label, code]))}"
                for code in range(n_values)
            )
            terms[label].append(
                f"(CASE {code_ref} WHEN -1 THEN 0.0{value_arms} ELSE 0.0 END)"
            )
    lp_aliases = [
        (f"{prefix}lp{label}", " + ".join(terms[label]))
        for label in range(n_labels)
    ]
    lp_refs = [builder.dialect.quote(name) for name, _sql in lp_aliases]
    mx_alias = (prefix + "mx", f"MAX({', '.join(lp_refs)})")
    mx_ref = builder.dialect.quote(prefix + "mx")
    observed_arms = "".join(
        f" WHEN {label} THEN {lp_refs[label]}" for label in range(n_labels)
    )
    observed_lp = f"CASE {obs_ref}{observed_arms} ELSE {mx_ref} - 1.0 END"
    near_top = " + ".join(
        f"(CASE WHEN {ref} > {mx_ref} - {_MARGIN} THEN 1 ELSE 0 END)"
        for ref in lp_refs
    )
    certified = (
        f"({observed_lp}) = {mx_ref} AND ({near_top}) = 1"
    )
    levels = (
        [code_aliases, lp_aliases, [mx_alias]]
        if code_aliases
        else [lp_aliases, [mx_alias]]
    )
    return FamilyScreen(suspect_sql=f"NOT ({certified})", levels=levels)
