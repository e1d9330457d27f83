"""The model loader refuses a damaged model at load time.

``auditor_from_dict`` validates the document it decodes: a model either
fails to load with :class:`~repro.errors.InputError`, naming the
classifier's attribute and the tree node, or it loads and audits. The
targeted cases pin the checks one by one; the property mutates a valid
document at random and holds the loader to that promise — a mutated
model that loads must audit a sample and render its findings as JSONL
without raising.
"""

import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AuditorConfig, DataAuditor, auditor_from_dict, auditor_to_dict
from repro.core.findings import findings_schema, findings_to_table
from repro.errors import InputError
from repro.io import JsonlTableSink
from repro.quis import generate_quis_sample
from repro.schema import Table

_SAMPLE = generate_quis_sample(240, seed=11)
#: a valid model document over nominal, numeric and date attributes, as
#: written to disk (JSON types only)
_DOCUMENT = json.loads(
    json.dumps(
        auditor_to_dict(
            DataAuditor(
                _SAMPLE.dirty.schema, AuditorConfig(min_error_confidence=0.6)
            ).fit(_SAMPLE.dirty)
        )
    )
)
_RECORDS = [record.to_dict() for record in _SAMPLE.dirty.head(60).records()]


def _first_node(document, kind):
    """``(attribute, node)`` of the first tree node of *kind*, depth first."""
    for attribute, entry in sorted(document["classifiers"].items()):
        stack = [entry["tree"]]
        while stack:
            node = stack.pop()
            if node["type"] == kind:
                return attribute, node
            if node["type"] == "numeric":
                stack += [node["high"], node["low"]]
            elif node["type"] == "nominal":
                stack += list(node["branches"].values())
    raise AssertionError(f"the fixture model has no {kind} node")


def _load_error(document) -> str:
    with pytest.raises(InputError) as excinfo:
        auditor_from_dict(document)
    return str(excinfo.value)


class TestTargetedDamage:
    def test_valid_document_loads_and_audits_identically(self):
        auditor = auditor_from_dict(copy.deepcopy(_DOCUMENT))
        assert auditor_to_dict(auditor) == _DOCUMENT

    def test_truncated_leaf_counts(self):
        document = copy.deepcopy(_DOCUMENT)
        attribute, leaf = _first_node(document, "leaf")
        leaf["counts"] = leaf["counts"][:-1]
        message = _load_error(document)
        assert message.startswith(f"classifier {attribute!r}: tree node root")
        assert "counts has" in message

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_counts_must_be_finite_and_non_negative(self, bad):
        document = copy.deepcopy(_DOCUMENT)
        _, leaf = _first_node(document, "leaf")
        leaf["counts"][0] = bad
        assert "finite and non-negative" in _load_error(document)

    def test_branch_code_outside_its_encoder(self):
        document = copy.deepcopy(_DOCUMENT)
        _, split = _first_node(document, "nominal")
        code = next(iter(split["branches"]))
        split["branches"]["999"] = split["branches"].pop(code)
        split["fractions"]["999"] = split["fractions"].pop(code)
        assert "branch code 999" in _load_error(document)

    def test_split_on_a_non_base_attribute(self):
        document = copy.deepcopy(_DOCUMENT)
        attribute, split = _first_node(document, "numeric")
        split["attribute"] = attribute  # the class attribute itself
        assert "numeric split" in _load_error(document)

    def test_class_labels_must_be_the_vocabulary(self):
        document = copy.deepcopy(_DOCUMENT)
        entry = next(
            entry
            for entry in document["classifiers"].values()
            if entry["class_encoder"]["discretizer"]
        )
        entry["class_encoder"]["labels"].pop(0)
        assert "are not its vocabulary" in _load_error(document)

    def test_unknown_node_kind(self):
        document = copy.deepcopy(_DOCUMENT)
        _, leaf = _first_node(document, "leaf")
        leaf["type"] = "oracle"
        assert "unknown node type: 'oracle'" in _load_error(document)


def _paths(node, prefix=()):
    """The path of every value inside a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield prefix + (index,)
            yield from _paths(value, prefix + (index,))


_PATHS = list(_paths(_DOCUMENT))
#: what a mutation puts in place of a value
_REPLACEMENTS = [
    None, True, -1, 0, 1, 7, 0.5, -2.5, 1e308, float("nan"), float("inf"),
    "", "x", "leaf", "nominal", [], {}, [1.0],
]


def _mutate(document, path, operation, replacement):
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if operation == "delete":
        del parent[last]
    elif operation == "truncate" and isinstance(parent[last], list) and parent[last]:
        parent[last].pop()
    elif operation == "extend" and isinstance(parent[last], list) and parent[last]:
        parent[last].append(copy.deepcopy(parent[last][-1]))
    else:
        parent[last] = copy.deepcopy(replacement)


# a count of 1e308 overflows an intermediate of the Wilson bound; the
# bound itself stays finite, which rendering the findings checks
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    path=st.sampled_from(_PATHS),
    operation=st.sampled_from(["replace", "delete", "truncate", "extend"]),
    replacement=st.sampled_from(_REPLACEMENTS),
)
def test_mutated_model_fails_at_load_or_audits(path, operation, replacement):
    document = copy.deepcopy(_DOCUMENT)
    _mutate(document, path, operation, replacement)
    try:
        auditor = auditor_from_dict(document)
    except InputError:
        return
    names = auditor.schema.names
    sample = Table.adopt(
        auditor.schema, [[record.get(name) for name in names] for record in _RECORDS]
    )
    report = auditor.audit(sample)
    with JsonlTableSink(findings_schema(), io.StringIO()) as sink:
        sink.write(findings_to_table(report.findings))
