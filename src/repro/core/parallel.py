"""Per-attribute fit fan-out: structure induction on a process pool.

Structure induction (sec. 5) fits one classifier per audited attribute,
and each fit is independent (:meth:`DataAuditor.fit_attribute
<repro.core.auditor.DataAuditor.fit_attribute>`).
:func:`fit_table_parallel` fans those fits out, each worker holding the
shared table plus its own encode-once
:class:`~repro.core.auditor.FitColumnCache`. Fitted classifiers return
to the parent as their lean
:meth:`~repro.mining.base.AttributeClassifier.prediction_payload` and
fold in audited-attribute order, so the serialized model is
byte-identical to a serial fit at any job count.

Workers receive the auditor and the table once, at pool start-up. The
``fork`` start method is preferred where available: workers inherit the
payload copy-on-write, so even a multi-million-row table reaches them
without a serialization pass. ``spawn`` is the fallback and pickles the
payload, so a custom ``classifier_factory`` must then be picklable.

Deviation detection has no parallel executor. Every audit fan-out that
was measured — per column, per chunk, over pickle or shared memory —
ran slower than the serial batch audit on a 2-core host
(``docs/architecture.md``, "Parallel fit").
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.core.auditor import DataAuditor

__all__ = ["resolve_n_jobs", "fit_table_parallel"]


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize a job count: ``None`` → 1 (serial), positive counts pass
    through, negative counts are cpu-relative in the joblib convention
    (``-1`` = all cores, ``-2`` = all but one, …), 0 is rejected."""
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        return max(1, (os.cpu_count() or 1) + 1 + n_jobs)
    if n_jobs == 0:
        raise ValueError(
            "n_jobs must be a positive worker count or a negative "
            "cpu-relative count (-1 = all cores), not 0"
        )
    return n_jobs


def _mp_context():
    """``fork`` where available (cheap start-up, copy-on-write payload),
    else ``spawn`` (macOS default / Windows)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _fit_payload(auditor: "DataAuditor") -> "DataAuditor":
    """The auditor clone shipped to fit workers: same schema and config
    (workers construct classifiers through its factory), no fitted
    classifiers — every worker fits from scratch."""
    clone = object.__new__(type(auditor))
    clone.schema = auditor.schema
    clone.config = auditor.config
    clone.classifiers = {}
    clone.fit_seconds = 0.0
    return clone


# -- worker side -----------------------------------------------------------
#
# One (auditor, table) payload per pool, installed by the initializer;
# tasks then name only the class attribute. Module globals are per
# worker process.

_WORKER_AUDITOR: Optional["DataAuditor"] = None
_WORKER_TABLE = None
_WORKER_CACHE = None  # FitColumnCache over the shared table

#: payloads staged in the parent for fork-inheriting workers, keyed by a
#: per-pool token. An entry lives for the whole pool lifetime: a worker
#: respawned after a crash forks from the parent later and must still
#: find it, and concurrent fits (from threads) each own their token.
_POOL_PAYLOADS: dict[int, tuple] = {}
_pool_tokens = itertools.count()


def _install_payload(auditor: "DataAuditor", table) -> None:
    from repro.core.auditor import FitColumnCache

    global _WORKER_AUDITOR, _WORKER_TABLE, _WORKER_CACHE
    _WORKER_AUDITOR = auditor
    _WORKER_TABLE = table
    _WORKER_CACHE = FitColumnCache(table, n_bins=auditor.config.n_bins)


def _init_worker_from_token(token: int) -> None:
    """Initializer for fork-start workers: adopt the inherited payload."""
    _install_payload(*_POOL_PAYLOADS[token])


def _init_worker_from_bytes(payload: bytes) -> None:
    """Initializer for spawn-start workers: unpickle the payload."""
    _install_payload(*pickle.loads(payload))


def _fit_attribute_task(class_attr: str):
    assert _WORKER_AUDITOR is not None
    classifier = _WORKER_AUDITOR.fit_attribute(
        class_attr, _WORKER_TABLE, _WORKER_CACHE
    )
    # ship the lean prediction payload back: for trees that drops the
    # encoded training matrix, and serialization/auditing only ever read
    # what the payload retains (root, encoders, class vocabulary)
    return classifier.prediction_payload()


# -- driver side -----------------------------------------------------------


def fit_table_parallel(auditor: "DataAuditor", table, n_jobs: int) -> dict:
    """Fit one classifier per audited attribute over *n_jobs* workers.

    Each task is one class attribute's fit. Results fold back in
    audited-attribute order (``pool.map`` preserves it), so the
    classifier dict, and with it the serialized model, is byte-identical
    to a serial fit. A worker's exception propagates to the caller, and
    the pool is terminated and joined on every exit path, so no worker
    process outlives the call.
    """
    attrs = auditor.audited_attributes()
    n_jobs = min(n_jobs, len(attrs))
    payload = (_fit_payload(auditor), table)
    context = _mp_context()
    token = None
    if context.get_start_method() == "fork":
        token = next(_pool_tokens)
        _POOL_PAYLOADS[token] = payload
        initializer, initargs = _init_worker_from_token, (token,)
    else:
        try:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:
            raise ValueError(
                "parallel fit under the 'spawn' start method requires a "
                "picklable classifier_factory (module-level function, not "
                f"a closure/lambda): {error}"
            ) from error
        initializer, initargs = _init_worker_from_bytes, (data,)
    try:
        pool = context.Pool(n_jobs, initializer=initializer, initargs=initargs)
        try:
            results = pool.map(_fit_attribute_task, attrs, chunksize=1)
        finally:
            pool.terminate()
            pool.join()
    finally:
        if token is not None:
            _POOL_PAYLOADS.pop(token, None)
    return dict(zip(attrs, results))
