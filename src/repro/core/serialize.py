"""Persistence of fitted auditors (the offline/online split of sec. 2.2).

*"Both tasks can run asynchronously. This is useful for an application in
the data cleansing phase during warehouse loading: While the
time-consuming structure induction can be prepared off-line, new data can
be checked for deviations and loaded quickly."*

:func:`auditor_to_dict` captures everything deviation detection needs —
schema, configuration, per-attribute class vocabularies (including fitted
discretizers), and the induced decision trees — as plain JSON types;
:func:`auditor_from_dict` restores a ready-to-audit
:class:`~repro.core.auditor.DataAuditor` without the training table.

Only tree-based classifiers are serializable (they are the production
path); attempting to persist an auditor with other classifier types
raises ``TypeError``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping, Union

import numpy as np

from repro.core.auditor import AuditorConfig, DataAuditor
from repro.mining.dataset import ClassEncoder, Dataset
from repro.mining.intervals import ConfidenceBounds, IntervalMethod
from repro.mining.tree.grow import PruningStrategy, TreeConfig
from repro.mining.tree.node import Leaf, Node, NominalSplit, NumericSplit
from repro.mining.tree_classifier import TreeClassifier
from repro.schema.serialize import schema_from_dict, schema_to_dict

__all__ = [
    "auditor_to_dict",
    "auditor_from_dict",
    "save_auditor",
    "load_auditor",
    "write_atomic",
]


# -- tree nodes ----------------------------------------------------------------


def _node_to_dict(node: Node) -> dict[str, Any]:
    if isinstance(node, Leaf):
        return {"type": "leaf", "counts": [float(c) for c in node.counts]}
    if isinstance(node, NominalSplit):
        return {
            "type": "nominal",
            "attribute": node.attribute,
            "counts": [float(c) for c in node.counts],
            "branches": {str(code): _node_to_dict(child) for code, child in node.branches.items()},
            "fractions": {str(code): fraction for code, fraction in node.fractions.items()},
        }
    if isinstance(node, NumericSplit):
        return {
            "type": "numeric",
            "attribute": node.attribute,
            "counts": [float(c) for c in node.counts],
            "threshold": node.threshold,
            "low": _node_to_dict(node.low),
            "high": _node_to_dict(node.high),
            "low_fraction": node.low_fraction,
        }
    raise TypeError(f"unknown node type: {type(node).__name__}")


def _node_from_dict(payload: Mapping[str, Any]) -> Node:
    counts = np.asarray(payload["counts"], dtype=float)
    node_type = payload["type"]
    if node_type == "leaf":
        return Leaf(counts)
    if node_type == "nominal":
        return NominalSplit(
            counts,
            payload["attribute"],
            {int(code): _node_from_dict(child) for code, child in payload["branches"].items()},
            {int(code): float(f) for code, f in payload["fractions"].items()},
        )
    if node_type == "numeric":
        return NumericSplit(
            counts,
            payload["attribute"],
            float(payload["threshold"]),
            _node_from_dict(payload["low"]),
            _node_from_dict(payload["high"]),
            float(payload["low_fraction"]),
        )
    raise ValueError(f"unknown node type: {node_type!r}")


# -- configs --------------------------------------------------------------------


def _bounds_to_dict(bounds: ConfidenceBounds) -> dict[str, Any]:
    return {"confidence": bounds.confidence, "method": bounds.method.value}


def _bounds_from_dict(payload: Mapping[str, Any]) -> ConfidenceBounds:
    return ConfidenceBounds(payload["confidence"], IntervalMethod(payload["method"]))


def _tree_config_to_dict(config: TreeConfig) -> dict[str, Any]:
    return {
        "min_instances": config.min_instances,
        "min_class_instances": config.min_class_instances,
        "max_depth": config.max_depth,
        "gain_ratio": config.gain_ratio,
        "numeric_penalty": config.numeric_penalty,
        "pruning": config.pruning.value,
        "bounds": _bounds_to_dict(config.bounds),
        "min_detection_confidence": config.min_detection_confidence,
    }


def _tree_config_from_dict(payload: Mapping[str, Any]) -> TreeConfig:
    return TreeConfig(
        min_instances=payload["min_instances"],
        min_class_instances=payload["min_class_instances"],
        max_depth=payload["max_depth"],
        gain_ratio=payload["gain_ratio"],
        numeric_penalty=payload["numeric_penalty"],
        pruning=PruningStrategy(payload["pruning"]),
        bounds=_bounds_from_dict(payload["bounds"]),
        min_detection_confidence=payload.get("min_detection_confidence", 0.8),
    )


# -- auditor ---------------------------------------------------------------------


def auditor_to_dict(auditor: DataAuditor) -> dict[str, Any]:
    """Serialize a fitted (tree-based) auditor to plain JSON types."""
    classifiers: dict[str, Any] = {}
    for class_attr, classifier in auditor.classifiers.items():
        if not isinstance(classifier, TreeClassifier):
            raise TypeError(
                f"cannot serialize classifier of type {type(classifier).__name__} "
                f"for attribute {class_attr!r}; only TreeClassifier is supported"
            )
        if classifier.root is None or classifier.dataset is None:
            raise ValueError(f"classifier for {class_attr!r} is not fitted")
        classifiers[class_attr] = {
            "base_attrs": list(classifier.dataset.base_attrs),
            "class_encoder": classifier.dataset.class_encoder.to_state(),
            "tree": _node_to_dict(classifier.root),
            "tree_config": _tree_config_to_dict(classifier.config),
        }
    config = auditor.config
    return {
        "format": "repro-auditor-v1",
        "schema": schema_to_dict(auditor.schema),
        "config": {
            "min_error_confidence": config.min_error_confidence,
            "bounds": _bounds_to_dict(config.bounds),
            "n_bins": config.n_bins,
            "base_attributes": {k: list(v) for k, v in config.base_attributes.items()},
            "audited_attributes": (
                list(config.audited_attributes)
                if config.audited_attributes is not None
                else None
            ),
            # fit_n_jobs is deliberately NOT persisted: it is a fit-time
            # execution knob that never changes the induced model, and
            # keeping it out makes the serialized document (and hence
            # the registry content address) byte-identical no matter how
            # the model was fitted.
        },
        "classifiers": classifiers,
    }


def auditor_from_dict(payload: Mapping[str, Any]) -> DataAuditor:
    """Restore a ready-to-audit :class:`DataAuditor` (inverse of
    :func:`auditor_to_dict`)."""
    if payload.get("format") != "repro-auditor-v1":
        raise ValueError(f"unsupported model format: {payload.get('format')!r}")
    schema = schema_from_dict(payload["schema"])
    config_payload = payload["config"]
    # documents written while audits took a job count carry an "n_jobs";
    # audits are serial now, so any value is accepted and ignored
    config = AuditorConfig(
        min_error_confidence=config_payload["min_error_confidence"],
        bounds=_bounds_from_dict(config_payload["bounds"]),
        n_bins=config_payload["n_bins"],
        base_attributes=config_payload["base_attributes"],
        audited_attributes=config_payload["audited_attributes"],
    )
    auditor = DataAuditor(schema, config)
    for class_attr, entry in payload["classifiers"].items():
        class_encoder = ClassEncoder.from_state(
            schema.attribute(class_attr), entry["class_encoder"]
        )
        dataset = Dataset.for_prediction(
            schema, class_attr, entry["base_attrs"], class_encoder
        )
        classifier = TreeClassifier(_tree_config_from_dict(entry["tree_config"]))
        classifier.dataset = dataset
        classifier.root = _node_from_dict(entry["tree"])
        auditor.classifiers[class_attr] = classifier
    return auditor


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Replace *path* with *data* atomically: a sibling temp file,
    fsync, then an atomic rename onto *path*. The file either keeps its old
    content or holds all of the new one, never a prefix, and the temp
    file is removed on any exception, ``KeyboardInterrupt`` included.
    Model files, registry objects and indexes, and monitor watermarks
    are all written through it."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def save_auditor(auditor: DataAuditor, path: Union[str, Path]) -> None:
    """Persist a fitted auditor as JSON, atomically (:func:`write_atomic`),
    so a crash (or serialization error) mid-save can never leave a
    truncated model at *path* — the online job either finds the previous
    model intact or the complete new one.
    """
    payload = auditor_to_dict(auditor)  # serialize before touching disk
    write_atomic(path, json.dumps(payload).encode("utf-8"))


def load_auditor(path: Union[str, Path]) -> DataAuditor:
    """Load a fitted auditor persisted by :func:`save_auditor`."""
    with open(path, "r", encoding="utf-8") as handle:
        return auditor_from_dict(json.load(handle))
