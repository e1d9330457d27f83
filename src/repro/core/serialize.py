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

A model document comes from outside the program, so
:func:`auditor_from_dict` validates it as it decodes it and refuses a
damaged one with :class:`~repro.errors.InputError` — at load time, naming
the classifier's attribute and the tree node — instead of restoring a
model that fails, or answers wrongly, at audit time.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping, Union

import numpy as np

from repro.core.auditor import AuditorConfig, DataAuditor
from repro.errors import InputError, InputKeyError, decoding
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


def _node_from_dict(payload: Mapping[str, Any], dataset: Dataset, path: str) -> Node:
    """Decode the tree node at *path* (``root``, ``root.low``,
    ``root[3]``, …) of *dataset*'s classifier; ``ValueError`` for a node
    the prediction could not use: a count vector that is not one finite,
    non-negative entry per class label, a split on an attribute that is
    not an encoded base attribute of the right kind, a branch code
    outside its encoder, a fraction outside [0, 1], an unknown kind."""
    counts = np.asarray(payload["counts"], dtype=float)
    n_labels = dataset.class_encoder.n_labels
    if counts.shape != (n_labels,):
        raise ValueError(
            f"tree node {path}: counts has {counts.size} entries, expected "
            f"{n_labels} (one per class label)"
        )
    if not np.isfinite(counts.sum()) or (counts < 0).any():
        raise ValueError(f"tree node {path}: counts must be finite and non-negative")
    node_type = payload["type"]
    if node_type == "leaf":
        return Leaf(counts)
    if node_type not in ("nominal", "numeric"):
        raise ValueError(f"tree node {path}: unknown node type: {node_type!r}")
    attribute = payload["attribute"]
    encoder = dataset.encoders.get(attribute)
    if encoder is None or encoder.categorical != (node_type == "nominal"):
        raise ValueError(
            f"tree node {path}: a {node_type} split needs a {node_type} base "
            f"attribute of the classifier, not {attribute!r}"
        )
    if node_type == "nominal":
        branches = {}
        for code, child in payload["branches"].items():
            branch = int(code)
            if not 0 <= branch < encoder.n_categories:
                raise ValueError(
                    f"tree node {path}: branch code {branch} is outside the "
                    f"{encoder.n_categories} category codes of {attribute!r}"
                )
            branches[branch] = _node_from_dict(child, dataset, f"{path}[{branch}]")
        fractions = {int(code): _fraction(f, path) for code, f in payload["fractions"].items()}
        if fractions.keys() != branches.keys():
            raise ValueError(f"tree node {path}: fractions do not match the branches")
        return NominalSplit(counts, attribute, branches, fractions)
    threshold = float(payload["threshold"])
    if not np.isfinite(threshold):
        raise ValueError(f"tree node {path}: threshold {threshold!r} is not finite")
    return NumericSplit(
        counts,
        attribute,
        threshold,
        _node_from_dict(payload["low"], dataset, f"{path}.low"),
        _node_from_dict(payload["high"], dataset, f"{path}.high"),
        _fraction(payload["low_fraction"], path),
    )


def _fraction(value: Any, path: str) -> float:
    fraction = float(value)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"tree node {path}: fraction {fraction!r} is outside [0, 1]")
    return fraction


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
    :func:`auditor_to_dict`).

    Raises :class:`~repro.errors.InputError` for a document that is not
    such a model (see module docstring); a missing field or an attribute
    name the schema does not hold raises its
    :class:`~repro.errors.InputKeyError` form.
    """
    found = payload.get("format") if isinstance(payload, Mapping) else None
    if found != "repro-auditor-v1":
        raise InputError(f"unsupported model format: {found!r}")
    with decoding("model"):
        schema = schema_from_dict(payload["schema"])
        config_payload = payload["config"]
        # documents written while audits took a job count carry an
        # "n_jobs"; audits are serial now, so any value is ignored
        config = AuditorConfig(
            min_error_confidence=config_payload["min_error_confidence"],
            bounds=_bounds_from_dict(config_payload["bounds"]),
            n_bins=config_payload["n_bins"],
            base_attributes=config_payload["base_attributes"],
            audited_attributes=config_payload["audited_attributes"],
        )
        _check_names(schema, list(config.base_attributes), "base_attributes")
        for names in config.base_attributes.values():
            _check_names(schema, names, "base_attributes")
        if config.audited_attributes is not None:
            _check_names(schema, config.audited_attributes, "audited_attributes")
        auditor = DataAuditor(schema, config)
        entries = payload["classifiers"].items()
        _check_names(schema, [class_attr for class_attr, _ in entries], "classifiers")
    for class_attr, entry in entries:
        with decoding(f"classifier {class_attr!r}"):
            auditor.classifiers[class_attr] = _classifier_from_dict(
                schema, class_attr, entry
            )
    return auditor


def _check_names(schema, names, field: str) -> None:
    """Refuse *names* unless it is a list of attributes of *schema*; a
    name the schema does not hold is an
    :class:`~repro.errors.InputKeyError`."""
    if not isinstance(names, list):
        raise ValueError(f"{field} must be a list of attribute names, got {names!r}")
    unknown = [name for name in names if name not in schema]
    if unknown:
        raise InputKeyError(
            f"model {field} names {unknown!r}, which its schema does not hold"
        )


def _classifier_from_dict(schema, class_attr: str, entry: Mapping[str, Any]) -> TreeClassifier:
    base_attrs = entry["base_attrs"]
    _check_names(schema, base_attrs, "base_attrs")
    if class_attr in base_attrs or len(set(base_attrs)) != len(base_attrs):
        raise ValueError(
            f"base_attrs {base_attrs!r} must be distinct attributes other than "
            f"the class attribute"
        )
    class_encoder = ClassEncoder.from_state(
        schema.attribute(class_attr), entry["class_encoder"]
    )
    dataset = Dataset.for_prediction(schema, class_attr, base_attrs, class_encoder)
    classifier = TreeClassifier(_tree_config_from_dict(entry["tree_config"]))
    classifier.dataset = dataset
    classifier.root = _node_from_dict(entry["tree"], dataset, "root")
    return classifier


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
