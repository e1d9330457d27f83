"""Smoke tests: every shipped example must run to completion and produce
its advertised narrative (examples are documentation — they break
silently otherwise)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    output = _run("quickstart.py")
    assert "generated 4000 clean records" in output
    assert "top findings" in output
    assert "sensitivity=" in output


def test_quis_audit():
    output = _run("quis_audit.py", "15000")
    assert "suspicious records" in output
    assert "BRV=404 with GBM=911" in output
    assert "flagged: True" in output


def test_warehouse_loading():
    output = _run("warehouse_loading.py")
    assert "structure model persisted" in output
    assert "seeded errors caught: 3/3" in output


def test_sql_pushdown():
    output = _run("sql_pushdown.py")
    assert (
        "model compiled to SQL: 1 screening query over 8 attributes (sqlite dialect)"
        in output
    )
    assert "of the 2000 rows an extract would move" in output
    assert "findings byte-identical to the in-memory audit" in output
    assert "row    17 GBM" in output


def test_calibration_workflow():
    output = _run("calibration_workflow.py")
    assert "algorithm selection" in output
    assert "selected: adjusted C4.5" in output
    assert "derived minInst bound" in output


def test_interactive_review():
    output = _run("interactive_review.py")
    assert "queued for review" in output
    assert "reviewed" in output
    assert "canonical record now reads GBM = '901'" in output


def test_audit_service():
    output = _run("audit_service.py")
    assert "registered quis@v1" in output
    assert "seeded errors caught: 3/3" in output
    assert "HTTP findings identical to the in-process audit: True" in output
    assert "audit service stopped cleanly" in output


def test_continuous_audit():
    output = _run("continuous_audit.py")
    assert "registered quis@v1" in output
    assert "drift detected on" in output
    assert "auto-refit registered quis@v2 (trigger=drift" in output
    assert "top findings:" in output
