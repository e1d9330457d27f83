"""Cross-process fit determinism: same seed + same table → the same bytes.

Each test runs the same fit in two **fresh interpreter processes** with
different ``PYTHONHASHSEED`` values and compares model fingerprints.
That guards against nondeterminism that in-process parity tests can
never see — ``set``/``dict`` iteration order leaking into split
tie-breaks, hash-randomized string ordering, or NumPy state bleeding
between fits. The QUIS sample generator is seeded, so any fingerprint
mismatch is the fit's fault, not the data's.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

_SCRIPT = """
import hashlib, json
from repro.core.auditor import AuditorConfig, DataAuditor
from repro.core.serialize import auditor_to_dict
from repro.mining.rule_induction import PrismClassifier
from repro.quis.simulator import generate_quis_sample

def make_prism(config):
    return PrismClassifier()

table = generate_quis_sample(400, seed=2003).dirty

# the persistable tree model, fitted with a pool
tree = DataAuditor(table.schema, AuditorConfig(fit_n_jobs=2))
tree.fit(table)
document = json.dumps(auditor_to_dict(tree), sort_keys=True).encode()
print("tree", hashlib.sha256(document).hexdigest())

# a rule-induction family (seeded subsampling) via the fit_state fingerprint
prism = DataAuditor(table.schema, AuditorConfig(classifier_factory=make_prism))
prism.fit(table)
states = {name: c.fit_state() for name, c in prism.classifiers.items()}
print("prism", hashlib.sha256(json.dumps(states, sort_keys=True).encode()).hexdigest())
"""


def _run_fit_process(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = _SRC
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_fit_is_deterministic_across_processes():
    first = _run_fit_process("0")
    second = _run_fit_process("31337")
    assert first == second
    # sanity: both families actually reported a fingerprint
    lines = dict(line.split() for line in first.strip().splitlines())
    assert set(lines) == {"tree", "prism"}
    assert all(len(digest) == 64 for digest in lines.values())
