"""Training datasets for tests that state their input as a table: one
classifier's view, encoded by the fit's own column cache."""

from repro.core.auditor import FitColumnCache


def training_dataset(table, class_attr, base_attrs):
    """The dataset :meth:`DataAuditor.fit <repro.core.auditor.DataAuditor.fit>`
    trains *class_attr*'s classifier on (default ``n_bins``)."""
    return FitColumnCache(table).dataset_for(class_attr, base_attrs)
