"""Per-attribute fit fan-out: structure induction on a thread pool.

Structure induction (sec. 5) fits one classifier per audited attribute,
and each fit is independent. :meth:`DataAuditor.fit
<repro.core.auditor.DataAuditor.fit>` builds every audited attribute's
:class:`~repro.mining.dataset.Dataset` first, in the calling thread,
over one encode-once :class:`~repro.core.auditor.FitColumnCache`
(whose dicts fill lazily and are not thread-safe). From then on the
fits share only read-only arrays, and each tree grower keeps its own
level state, so :func:`fit_classifiers` runs them at once, without
locks, on ``min(jobs, attributes)`` threads. NumPy releases the
interpreter lock inside its kernels, where much of a tree's fit runs.

The fitted classifiers are assembled in audited-attribute order, so the
serialized model is byte-identical to a serial fit at any job count,
and so is the error of a failing fit: the exception of the first
failing attribute in audited order (see :func:`fit_classifiers`).

Deviation detection has no parallel executor. Every audit fan-out that
was measured — per column, per chunk, over pickle or shared memory —
ran slower than the serial batch audit on a 2-core host
(``docs/architecture.md``, "Parallel fit").
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Mapping, Optional

if TYPE_CHECKING:
    from repro.mining.base import AttributeClassifier
    from repro.mining.dataset import Dataset

__all__ = ["resolve_n_jobs"]


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (``taskset``, a cpuset cgroup), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize a job count: ``None`` → 1 (serial), positive counts pass
    through, negative counts are relative to the usable cores in the
    joblib convention (``-1`` = every usable core, ``-2`` = all but one,
    …), 0 is rejected."""
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        return max(1, _usable_cores() + 1 + n_jobs)
    if n_jobs == 0:
        raise ValueError(
            "n_jobs must be a positive worker count or a negative "
            "cpu-relative count (-1 = all cores), not 0"
        )
    return n_jobs


def fit_classifiers(
    datasets: Mapping[str, "Dataset"],
    make_classifier: Callable[[], "AttributeClassifier"],
    jobs: int,
) -> dict[str, "AttributeClassifier"]:
    """Fit one fresh classifier per dataset, on up to *jobs* threads.

    *datasets* is keyed by class attribute in audited order, and so is
    the result. With one job or one dataset the fits run one after
    another in the calling thread, and no executor is made. Otherwise
    they run on ``min(jobs, len(datasets))`` threads, submitted largest
    class vocabulary first (ties in audited order): a wide vocabulary
    makes a slow fit, and one started last would run alone at the end.

    When a fit raises, no attribute after it in audited order starts any
    more. Once every attribute before it has finished, the exception of
    the first failing attribute in audited order is raised — the one the
    serial loop raises. No thread outlives the call.
    """
    attrs = list(datasets)
    jobs = min(jobs, len(attrs))
    if jobs <= 1:
        return {attr: _fit(make_classifier, datasets[attr]) for attr in attrs}
    first_failure = len(attrs)  # audited position of the earliest failed fit
    lock = threading.Lock()

    def fit(position: int) -> Optional["AttributeClassifier"]:
        nonlocal first_failure
        if position > first_failure:
            return None  # an earlier attribute failed: this fit is never read
        try:
            return _fit(make_classifier, datasets[attrs[position]])
        except BaseException:
            with lock:
                first_failure = min(first_failure, position)
            raise

    order = sorted(range(len(attrs)), key=lambda i: -datasets[attrs[i]].n_labels)
    executor = ThreadPoolExecutor(max_workers=jobs, thread_name_prefix="repro-fit")
    try:
        futures = {position: executor.submit(fit, position) for position in order}
        return {attr: futures[i].result() for i, attr in enumerate(attrs)}
    finally:
        executor.shutdown(cancel_futures=True)


def _fit(
    make_classifier: Callable[[], "AttributeClassifier"], dataset: "Dataset"
) -> "AttributeClassifier":
    classifier = make_classifier()
    classifier.fit(dataset)
    return classifier
