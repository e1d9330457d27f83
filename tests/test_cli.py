"""Tests for the command-line interface (full shell pipeline)."""

import json

import pytest

from repro.cli import main
from repro.schema.serialize import schema_from_dict


@pytest.fixture
def workspace(tmp_path):
    return {
        "schema": tmp_path / "schema.json",
        "clean": tmp_path / "clean.csv",
        "dirty": tmp_path / "dirty.csv",
        "log": tmp_path / "log.json",
        "model": tmp_path / "model.json",
        "findings": tmp_path / "findings.csv",
    }


def _generate(workspace, records=600, rules=25):
    code = main(
        [
            "generate",
            "--records",
            str(records),
            "--rules",
            str(rules),
            "--seed",
            "42",
            "--out",
            str(workspace["clean"]),
            "--schema-out",
            str(workspace["schema"]),
        ]
    )
    assert code == 0


class TestSchemaCommand:
    def test_base_schema(self, tmp_path, capsys):
        out = tmp_path / "schema.json"
        assert main(["schema", "--kind", "base", "--out", str(out)]) == 0
        schema = schema_from_dict(json.loads(out.read_text()))
        assert len(schema) == 8
        assert "wrote base schema" in capsys.readouterr().out

    def test_quis_schema(self, tmp_path):
        out = tmp_path / "quis.json"
        assert main(["schema", "--kind", "quis", "--out", str(out)]) == 0
        schema = schema_from_dict(json.loads(out.read_text()))
        assert "BRV" in schema


class TestPipeline:
    def test_generate_writes_csv_and_schema(self, workspace, capsys):
        _generate(workspace)
        assert workspace["clean"].exists() and workspace["schema"].exists()
        header = workspace["clean"].read_text().splitlines()[0]
        assert "C1" in header and "QTY" in header
        assert "generated 600 records" in capsys.readouterr().out

    def test_full_pipeline(self, workspace, capsys):
        _generate(workspace)
        assert (
            main(
                [
                    "pollute",
                    "--schema",
                    str(workspace["schema"]),
                    "--input",
                    str(workspace["clean"]),
                    "--output",
                    str(workspace["dirty"]),
                    "--log-out",
                    str(workspace["log"]),
                    "--factor",
                    "1.5",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "fit",
                    "--schema",
                    str(workspace["schema"]),
                    "--input",
                    str(workspace["dirty"]),
                    "--model-out",
                    str(workspace["model"]),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "audit",
                    "--model",
                    str(workspace["model"]),
                    "--input",
                    str(workspace["dirty"]),
                    "--findings-out",
                    str(workspace["findings"]),
                    "--top",
                    "3",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "evaluate",
                    "--schema",
                    str(workspace["schema"]),
                    "--clean",
                    str(workspace["clean"]),
                    "--dirty",
                    str(workspace["dirty"]),
                    "--log",
                    str(workspace["log"]),
                    "--model",
                    str(workspace["model"]),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "cell changes" in output
        assert "induced structure model" in output
        assert "suspicious" in output
        assert "sensitivity=" in output
        # findings CSV has a header plus data rows
        lines = workspace["findings"].read_text().splitlines()
        assert lines[0].startswith("row,attribute,observed")

    def test_audit_prints_ranked_findings(self, workspace, capsys):
        _generate(workspace)
        main(
            [
                "pollute",
                "--schema",
                str(workspace["schema"]),
                "--input",
                str(workspace["clean"]),
                "--output",
                str(workspace["dirty"]),
            ]
        )
        main(
            [
                "fit",
                "--schema",
                str(workspace["schema"]),
                "--input",
                str(workspace["dirty"]),
                "--model-out",
                str(workspace["model"]),
            ]
        )
        capsys.readouterr()
        main(
            [
                "audit",
                "--model",
                str(workspace["model"]),
                "--input",
                str(workspace["dirty"]),
                "--top",
                "2",
            ]
        )
        output = capsys.readouterr().out
        assert "audited" in output

    def test_generate_with_custom_rules(self, workspace, tmp_path, capsys):
        # author a schema + rule file by hand, generate against them
        assert main(["schema", "--kind", "quis", "--out", str(workspace["schema"])]) == 0
        rules_file = tmp_path / "rules.txt"
        rules_file.write_text(
            "# QUIS dependencies (paper sec. 6.2)\n"
            "BRV = '404' -> GBM = '901'\n"
            "KBM = '01' ∧ GBM = '901' → BRV = '501'\n"
        )
        assert (
            main(
                [
                    "generate",
                    "--records",
                    "200",
                    "--schema",
                    str(workspace["schema"]),
                    "--rules-file",
                    str(rules_file),
                    "--out",
                    str(workspace["clean"]),
                ]
            )
            == 0
        )
        assert "over 2 rules" in capsys.readouterr().out
        # the generated data satisfies the hand-written rules
        from repro.logic.parse import parse_rules
        from repro.schema.serialize import schema_from_dict

        schema = schema_from_dict(json.loads(workspace["schema"].read_text()))
        rules = parse_rules(rules_file.read_text(), schema)
        from repro.io import read_table

        table = read_table(schema, workspace["clean"])
        for record in table.records():
            assert all(rule.satisfied_by(record) for rule in rules)

    def test_generate_schema_without_rules_rejected(self, workspace):
        with pytest.raises(SystemExit):
            main(
                [
                    "generate",
                    "--schema",
                    str(workspace["schema"]),
                    "--out",
                    str(workspace["clean"]),
                ]
            )

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit):
            main(["fit", "--schema", "x.json"])


def _fitted_workspace(workspace):
    """generate → pollute → fit, leaving a model + dirty CSV behind."""
    _generate(workspace)
    assert (
        main(
            [
                "pollute",
                "--schema",
                str(workspace["schema"]),
                "--input",
                str(workspace["clean"]),
                "--output",
                str(workspace["dirty"]),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "fit",
                "--schema",
                str(workspace["schema"]),
                "--input",
                str(workspace["dirty"]),
                "--model-out",
                str(workspace["model"]),
            ]
        )
        == 0
    )


class TestCliPolish:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_corrupt_model_gives_clear_error(self, tmp_path, workspace):
        _generate(workspace)
        bad = tmp_path / "bad_model.json"
        bad.write_text("{ this is not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--model", str(bad), "--input", str(workspace["clean"])])
        assert "not a valid auditor model" in str(excinfo.value)

    def test_wrong_json_model_gives_clear_error(self, tmp_path, workspace):
        _generate(workspace)
        bad = tmp_path / "bad_model.json"
        bad.write_text('{"format": "repro-auditor-v1"}')
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--model", str(bad), "--input", str(workspace["clean"])])
        assert "not a valid auditor model" in str(excinfo.value)

    def test_missing_model_gives_clear_error(self, tmp_path, workspace):
        _generate(workspace)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "audit",
                    "--model",
                    str(tmp_path / "nope.json"),
                    "--input",
                    str(workspace["clean"]),
                ]
            )
        assert "cannot read model file" in str(excinfo.value)

    def test_audit_jsonl_to_stdout(self, workspace, capsys):
        _fitted_workspace(workspace)
        capsys.readouterr()
        assert (
            main(
                [
                    "audit",
                    "--model",
                    str(workspace["model"]),
                    "--input",
                    str(workspace["dirty"]),
                    "--format",
                    "jsonl",
                ]
            )
            == 0
        )
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines, "expected at least one JSONL finding"
        for line in lines:
            record = json.loads(line)
            assert {"row", "attribute", "observed", "expected", "confidence"} <= set(
                record
            )

    def test_audit_jsonl_findings_file(self, workspace, tmp_path):
        _fitted_workspace(workspace)
        out = tmp_path / "findings.jsonl"
        assert (
            main(
                [
                    "audit",
                    "--model",
                    str(workspace["model"]),
                    "--input",
                    str(workspace["dirty"]),
                    "--format",
                    "jsonl",
                    "--findings-out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_audit_chunked_equals_whole(self, workspace, tmp_path, capsys):
        _fitted_workspace(workspace)
        whole_out = tmp_path / "whole.csv"
        chunked_out = tmp_path / "chunked.csv"
        base = [
            "audit",
            "--model",
            str(workspace["model"]),
            "--input",
            str(workspace["dirty"]),
        ]
        assert main(base + ["--findings-out", str(whole_out)]) == 0
        assert (
            main(base + ["--chunk-size", "100", "--findings-out", str(chunked_out)])
            == 0
        )
        assert "chunk 1:" in capsys.readouterr().out
        assert chunked_out.read_text() == whole_out.read_text()

    def test_audit_invalid_chunk_size(self, workspace):
        _fitted_workspace(workspace)
        with pytest.raises(SystemExit):
            main(
                [
                    "audit",
                    "--model",
                    str(workspace["model"]),
                    "--input",
                    str(workspace["dirty"]),
                    "--chunk-size",
                    "0",
                ]
            )


class TestBadInput:
    """Every subcommand ends in one `error:` line, exit 1, on input it
    cannot use: a missing or unwritable file, a damaged schema or model,
    a cell its column cannot hold, bytes that are not UTF-8."""

    BAD_CELL = (
        "error: line 6, attribute 'HUBRAUM': "
        "invalid literal for int() with base 10: 'abc'"
    )

    @pytest.fixture
    def stand(self, tmp_path):
        from repro.io import write_table
        from repro.quis import generate_quis_sample

        sample = generate_quis_sample(300, seed=7)
        schema = tmp_path / "quis.json"
        assert main(["schema", "--kind", "quis", "--out", str(schema)]) == 0
        good = tmp_path / "load.csv"
        write_table(sample.dirty, good)
        model = tmp_path / "model.json"
        assert main(
            ["fit", "--schema", str(schema), "--input", str(good),
             "--model-out", str(model)]
        ) == 0
        lines = good.read_text(encoding="utf-8").splitlines(keepends=True)
        column = lines[0].rstrip("\n").split(",").index("HUBRAUM")
        cells = lines[5].split(",")  # line 6 of the file
        cells[column] = "abc"
        lines[5] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        dirty, log = tmp_path / "dirty.csv", tmp_path / "log.json"
        assert main(
            ["pollute", "--schema", str(schema), "--input", str(good),
             "--output", str(dirty), "--log-out", str(log)]
        ) == 0
        return {
            "fit": ["fit", "--schema", str(schema), "--model-out",
                    str(tmp_path / "refit.json")],
            "audit": ["audit", "--model", str(model)],
            # working arguments, one of which each case below replaces
            "pollute": {"--schema": schema, "--input": good,
                        "--output": tmp_path / "repolluted.csv"},
            "evaluate": {"--schema": schema, "--clean": good, "--dirty": dirty,
                         "--log": log, "--model": model},
            "bad": bad,
            "missing": tmp_path / "absent.csv",
            "schema": schema,
            "good": good,
            "model": model,
            "dir": tmp_path,
        }

    @staticmethod
    def _argv(stand, command, flag, value):
        options = {**stand[command], flag: value}
        return [command] + [str(part) for item in options.items() for part in item]

    @pytest.mark.parametrize("command", ["fit", "audit"])
    def test_bad_cell_names_line_and_attribute(self, stand, command, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(stand[command] + ["--input", str(stand["bad"])])
        assert excinfo.value.code == self.BAD_CELL
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["fit", "audit"])
    def test_missing_input_is_one_line(self, stand, command, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(stand[command] + ["--input", str(stand["missing"])])
        message = excinfo.value.code
        assert message.startswith("error: ") and "absent.csv" in message
        assert "\n" not in message
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("pollute", "--input"),
            ("evaluate", "--clean"),
            ("evaluate", "--dirty"),
            ("evaluate", "--log"),
        ],
    )
    def test_missing_table_or_log_is_one_line(self, stand, command, flag, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(self._argv(stand, command, flag, stand["missing"]))
        message = excinfo.value.code
        assert message.startswith("error: ") and "absent.csv" in message
        assert "\n" not in message
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "command, flag", [("pollute", "--input"), ("evaluate", "--dirty")]
    )
    def test_bad_table_cell_names_line_and_attribute(self, stand, command, flag, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(self._argv(stand, command, flag, stand["bad"]))
        assert excinfo.value.code == self.BAD_CELL
        assert capsys.readouterr().err == ""

    def test_process_exits_1_with_one_stderr_line(self, stand):
        import os
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *stand["audit"],
             "--input", str(stand["bad"])],
            cwd=repo,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == self.BAD_CELL + "\n"

    @staticmethod
    def _error_line(argv, capsys) -> str:
        """The one `error:` line *argv* ends in (nothing else on stderr)."""
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main([str(part) for part in argv])
        message = excinfo.value.code
        assert isinstance(message, str) and message.startswith("error: ")
        assert "\n" not in message
        assert capsys.readouterr().err == ""
        return message

    def test_missing_schema_is_one_line(self, stand, capsys):
        message = self._error_line(
            ["fit", "--schema", stand["missing"], "--input", stand["good"],
             "--model-out", stand["dir"] / "refit.json"],
            capsys,
        )
        assert "absent.csv" in message

    def test_malformed_schema_is_one_line(self, stand, capsys):
        schema = stand["dir"] / "no-domain.json"
        schema.write_text('{"attributes": [{"name": "A"}]}', encoding="utf-8")
        message = self._error_line(
            ["fit", "--schema", schema, "--input", stand["good"],
             "--model-out", stand["dir"] / "refit.json"],
            capsys,
        )
        assert message == (
            f"error: {schema}: invalid schema: missing field 'domain'"
        )

    @pytest.mark.parametrize("command", ["generate", "generate-sqlite", "pollute", "fit"])
    def test_unwritable_output_is_one_line(self, stand, command, capsys):
        """`--out`, `--output` and `--model-out` in a directory that does
        not exist."""
        target = stand["dir"] / "no-such-dir" / "out"
        argv = {
            "generate": ["generate", "--records", "20", "--rules", "5",
                         "--out", f"{target}.csv"],
            "generate-sqlite": ["generate", "--records", "20", "--rules", "5",
                                "--out", f"{target}.db"],
            "pollute": self._argv(stand, "pollute", "--output", f"{target}.csv"),
            "fit": ["fit", "--schema", stand["schema"], "--input", stand["good"],
                    "--model-out", f"{target}.json"],
        }[command]
        message = self._error_line(argv, capsys)
        assert "no-such-dir" in message

    def test_unwritable_model_names_the_given_path(self, stand, capsys):
        """The error names the `--model-out` path, not the temp file the
        atomic write goes through."""
        target = stand["dir"] / "no-such-dir" / "m.json"
        message = self._error_line(
            ["fit", "--schema", stand["schema"], "--input", stand["good"],
             "--model-out", target],
            capsys,
        )
        assert message == (
            f"error: cannot write model file {target}: "
            f"[Errno 2] No such file or directory: '{target}'"
        )

    def test_file_that_is_not_a_database_is_one_line(self, stand, capsys):
        impostor = stand["dir"] / "load.db"
        impostor.write_bytes(stand["good"].read_bytes())
        message = self._error_line(stand["audit"] + ["--input", impostor], capsys)
        assert message == f"error: cannot read SQLite database {impostor}: file is not a database"

    def test_invalid_utf8_is_one_line(self, stand, capsys):
        undecodable = stand["dir"] / "latin1.csv"
        undecodable.write_bytes(stand["good"].read_bytes() + b"\xff\xfe,x\n")
        message = self._error_line(
            stand["audit"] + ["--input", undecodable], capsys
        )
        assert message.startswith("error: input is not valid UTF-8")

    @pytest.mark.parametrize("command", ["fit", "audit"])
    def test_oversized_field_is_one_line(self, stand, command, capsys):
        """A field over the csv module's size limit is bad input, named
        by its line, not a ``_csv.Error`` traceback."""
        lines = stand["good"].read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "x" * 200_000 + lines[2]  # line 3 of the file
        oversized = stand["dir"] / "oversized.csv"
        oversized.write_text("".join(lines), encoding="utf-8")
        message = self._error_line(stand[command] + ["--input", oversized], capsys)
        assert message == "error: line 3: field larger than field limit (131072)"

    def test_truncated_leaf_model_is_refused_at_load(self, stand, capsys):
        """A model whose leaf lost a count fails at load, naming the
        file and the attribute, instead of failing mid-audit with a
        numpy shape error."""
        document = json.loads(stand["model"].read_text(encoding="utf-8"))
        attribute = sorted(document["classifiers"])[0]
        node = document["classifiers"][attribute]["tree"]
        while node["type"] != "leaf":
            node = node["low"] if node["type"] == "numeric" else next(
                iter(node["branches"].values())
            )
        node["counts"] = node["counts"][:-1]
        damaged = stand["dir"] / "damaged.json"
        damaged.write_text(json.dumps(document), encoding="utf-8")
        message = self._error_line(
            ["audit", "--model", damaged, "--input", stand["good"]], capsys
        )
        assert str(damaged) in message
        assert f"classifier {attribute!r}" in message
        assert "counts has" in message

    def test_monitor_bad_cell_is_one_line(self, stand, capsys):
        message = self._error_line(
            ["monitor", stand["bad"], "--model", stand["model"],
             "--findings-out", stand["dir"] / "f.jsonl"],
            capsys,
        )
        assert message.startswith(f"error: while tailing {stand['bad']} from byte ")
        assert message.endswith(self.BAD_CELL[len("error: "):])

    def test_monitor_process_exits_1_with_one_stderr_line(self, stand):
        import os
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "monitor", str(stand["bad"]),
             "--model", str(stand["model"]),
             "--findings-out", str(stand["dir"] / "f.jsonl")],
            cwd=repo,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: while tailing")


class TestBugsStayVisible:
    """Only unusable input becomes an `error:` line: a fault of the
    program keeps its traceback instead of being blamed on the input."""

    def test_internal_value_error_propagates(self, workspace, monkeypatch):
        from repro.mining.tree_classifier import TreeClassifier

        _fitted_workspace(workspace)

        def broken(self, columns, *, n_rows=None):
            raise ValueError("boom")

        monkeypatch.setattr(TreeClassifier, "predict_batch", broken)
        with pytest.raises(ValueError, match="boom") as excinfo:
            main(
                ["audit", "--model", str(workspace["model"]),
                 "--input", str(workspace["dirty"])]
            )
        assert type(excinfo.value) is ValueError


class TestStorageBackends:
    """The CLI speaks every registered format on its table arguments."""

    def test_sqlite_audit_equals_csv_audit(self, workspace, tmp_path):
        _fitted_workspace(workspace)
        # load the dirty CSV into a SQLite warehouse table, byte-for-byte
        from repro.io import read_table, write_table
        from repro.schema.serialize import schema_from_dict

        schema = schema_from_dict(json.loads(workspace["schema"].read_text()))
        dirty = read_table(schema, str(workspace["dirty"]))
        warehouse = tmp_path / "warehouse.db"
        write_table(dirty, warehouse, table="loads")

        csv_findings = tmp_path / "from_csv.csv"
        db_findings = tmp_path / "from_db.csv"
        base = ["audit", "--model", str(workspace["model"])]
        assert (
            main(base + ["--input", str(workspace["dirty"]), "--findings-out", str(csv_findings)])
            == 0
        )
        assert (
            main(
                base
                + [
                    "--input",
                    f"sqlite:///{warehouse}?table=loads",
                    "--chunk-size",
                    "128",
                    "--findings-out",
                    str(db_findings),
                ]
            )
            == 0
        )
        assert db_findings.read_bytes() == csv_findings.read_bytes()

    def test_pipeline_through_jsonl(self, workspace, tmp_path, capsys):
        """pollute → fit → evaluate entirely over JSONL tables (mixed
        with the CSV clean table in evaluate)."""
        _generate(workspace)
        dirty = tmp_path / "dirty.jsonl"
        assert (
            main(
                [
                    "pollute",
                    "--schema",
                    str(workspace["schema"]),
                    "--input",
                    str(workspace["clean"]),
                    "--output",
                    str(dirty),
                    "--log-out",
                    str(workspace["log"]),
                ]
            )
            == 0
        )
        assert json.loads(dirty.read_text().splitlines()[0])
        assert (
            main(
                [
                    "fit",
                    "--schema",
                    str(workspace["schema"]),
                    "--input",
                    str(dirty),
                    "--model-out",
                    str(workspace["model"]),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "evaluate",
                    "--schema",
                    str(workspace["schema"]),
                    "--clean",
                    str(workspace["clean"]),
                    "--dirty",
                    str(dirty),
                    "--log",
                    str(workspace["log"]),
                    "--model",
                    str(workspace["model"]),
                ]
            )
            == 0
        )
        assert "sensitivity=" in capsys.readouterr().out

    def test_generate_to_sqlite(self, workspace, tmp_path, capsys):
        out = tmp_path / "clean.db"
        assert (
            main(
                [
                    "generate",
                    "--records",
                    "120",
                    "--rules",
                    "10",
                    "--out",
                    str(out),
                    "--schema-out",
                    str(workspace["schema"]),
                ]
            )
            == 0
        )
        import sqlite3

        tables = sqlite3.connect(out).execute(
            "SELECT name FROM sqlite_master WHERE type='table'"
        ).fetchall()
        assert ("data",) in tables

    def test_output_format_override_beats_extension(self, workspace, tmp_path):
        _generate(workspace)
        out = tmp_path / "dirty.dat"  # unknown extension
        assert (
            main(
                [
                    "pollute",
                    "--schema",
                    str(workspace["schema"]),
                    "--input",
                    str(workspace["clean"]),
                    "--output",
                    str(out),
                    "--output-format",
                    "jsonl",
                    "--input-format",
                    "csv",
                ]
            )
            == 0
        )
        assert json.loads(out.read_text().splitlines()[0])

    def test_null_marker_threaded_through_audit(self, workspace, tmp_path, capsys):
        _fitted_workspace(workspace)
        # rewrite the dirty table with an explicit null marker
        from repro.io import read_table, write_table
        from repro.schema.serialize import schema_from_dict

        schema = schema_from_dict(json.loads(workspace["schema"].read_text()))
        dirty = read_table(schema, str(workspace["dirty"]))
        marked = tmp_path / "marked.csv"
        write_table(dirty, marked, null_marker="\\N")
        plain_out = tmp_path / "plain.csv"
        marked_out = tmp_path / "marked_findings.csv"
        base = ["audit", "--model", str(workspace["model"])]
        assert (
            main(base + ["--input", str(workspace["dirty"]), "--findings-out", str(plain_out)])
            == 0
        )
        assert (
            main(
                base
                + [
                    "--input",
                    str(marked),
                    "--null-marker",
                    "\\N",
                    "--findings-out",
                    str(marked_out),
                ]
            )
            == 0
        )
        assert marked_out.read_bytes() == plain_out.read_bytes()

    def test_findings_out_jsonl_inferred_from_extension(self, workspace, tmp_path):
        _fitted_workspace(workspace)
        out = tmp_path / "findings.jsonl"
        assert (
            main(
                [
                    "audit",
                    "--model",
                    str(workspace["model"]),
                    "--input",
                    str(workspace["dirty"]),
                    "--findings-out",
                    str(out),
                ]
            )
            == 0
        )
        for line in out.read_text().splitlines():
            record = json.loads(line)
            assert {"row", "attribute", "observed", "expected", "confidence"} <= set(
                record
            )

    def test_findings_out_to_sqlite(self, workspace, tmp_path):
        _fitted_workspace(workspace)
        out = tmp_path / "findings.db"
        assert (
            main(
                [
                    "audit",
                    "--model",
                    str(workspace["model"]),
                    "--input",
                    str(workspace["dirty"]),
                    "--findings-out",
                    str(out),
                ]
            )
            == 0
        )
        import sqlite3

        rows = sqlite3.connect(out).execute(
            "SELECT row, attribute, confidence FROM data"
        ).fetchall()
        assert rows, "expected findings rows in the SQLite sink"

    def test_explicit_format_csv_without_findings_out_still_valid(
        self, workspace, capsys
    ):
        """Spelling out the historical default must keep working."""
        _fitted_workspace(workspace)
        capsys.readouterr()
        assert (
            main(
                [
                    "audit",
                    "--model",
                    str(workspace["model"]),
                    "--input",
                    str(workspace["dirty"]),
                    "--format",
                    "csv",
                ]
            )
            == 0
        )
        assert "audited" in capsys.readouterr().out

    def test_non_stdout_format_without_findings_out_rejected(self, workspace):
        _fitted_workspace(workspace)
        with pytest.raises(SystemExit, match="needs --findings-out"):
            main(
                [
                    "audit",
                    "--model",
                    str(workspace["model"]),
                    "--input",
                    str(workspace["dirty"]),
                    "--format",
                    "sqlite",
                ]
            )


class TestModelRegistryCli:
    """The registry-facing commands: fit --register, audit by reference,
    and the models list/show/tag/rm family."""

    @pytest.fixture(autouse=True)
    def _no_registry_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)

    def _register(self, workspace, registry, extra=()):
        return main(
            [
                "fit",
                "--schema",
                str(workspace["schema"]),
                "--input",
                str(workspace["dirty"]),
                "--register",
                "loads",
                "--registry",
                str(registry),
            ]
            + list(extra)
        )

    def test_fit_without_a_destination_rejected(self, workspace):
        _generate(workspace)
        with pytest.raises(SystemExit, match="neither destination"):
            main(
                [
                    "fit",
                    "--schema",
                    str(workspace["schema"]),
                    "--input",
                    str(workspace["clean"]),
                ]
            )

    @pytest.mark.parametrize("name", ["", "a/b", "a@b", ".x"])
    def test_bad_register_name_fails_before_reading_input(self, tmp_path, name):
        # neither the schema nor the input exists: the name is checked first
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "fit",
                    "--schema",
                    str(tmp_path / "absent.json"),
                    "--input",
                    str(tmp_path / "absent.csv"),
                    "--register",
                    name,
                    "--registry",
                    str(tmp_path / "registry"),
                ]
            )
        assert str(excinfo.value).startswith(f"error: invalid model name {name!r}")

    @pytest.mark.parametrize("name", ["", "a/b", "a@b", ".x"])
    def test_bad_refit_name_fails_before_loading_the_model(self, tmp_path, name):
        # neither the model nor the source exists: the name is checked first
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "monitor",
                    str(tmp_path / "absent.csv"),
                    "--model",
                    str(tmp_path / "absent.json"),
                    "--refit-name",
                    name,
                ]
            )
        assert str(excinfo.value).startswith(f"error: invalid model name {name!r}")

    def test_register_records_provenance(self, workspace, tmp_path, capsys):
        _fitted_workspace(workspace)
        registry = tmp_path / "registry"
        assert self._register(workspace, registry) == 0
        assert "registered loads@v1" in capsys.readouterr().out
        assert main(["models", "--registry", str(registry), "show", "loads@v1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ref"] == "loads@v1"
        provenance = payload["provenance"]
        assert provenance["source"] == str(workspace["dirty"])
        assert provenance["source_format"] == "csv"
        assert provenance["schema_hash"] and provenance["created_at"]
        assert provenance["n_rows"] >= 600  # pollution may duplicate rows
        assert provenance["config"] == {
            "min_error_confidence": 0.8,
            "n_bins": 10,
            "base_attributes": {},
            "audited_attributes": None,
            "fit_n_jobs": -1,
        }

    def test_models_list_tag_rm(self, workspace, tmp_path, capsys):
        _fitted_workspace(workspace)
        registry = tmp_path / "registry"
        assert self._register(workspace, registry) == 0
        assert self._register(workspace, registry) == 0  # → loads@v2
        assert main(["models", "--registry", str(registry), "tag", "loads@v1", "prod"]) == 0
        capsys.readouterr()
        assert main(["models", "--registry", str(registry), "list"]) == 0
        listing = capsys.readouterr().out
        assert "loads" in listing and "latest→v2" in listing and "prod→v1" in listing
        assert main(["models", "--registry", str(registry), "rm", "loads@v2"]) == 0
        capsys.readouterr()
        # the tag pin survives the rm; latest falls back to the survivor
        assert main(["models", "--registry", str(registry), "show", "loads@prod"]) == 0
        assert json.loads(capsys.readouterr().out)["version"] == 1
        with pytest.raises(SystemExit, match="error: cannot resolve"):
            main(["models", "--registry", str(registry), "show", "loads@v2"])

    def test_audit_by_reference_matches_model_file(self, workspace, tmp_path, capsys):
        """The acceptance bar: `--model loads@latest --registry R` must be
        byte-identical to `--model model.json` on the same input."""
        _fitted_workspace(workspace)
        registry = tmp_path / "registry"
        assert self._register(workspace, registry) == 0

        def audit_jsonl(model, extra=()):
            capsys.readouterr()
            assert (
                main(
                    [
                        "audit",
                        "--model",
                        str(model),
                        "--input",
                        str(workspace["dirty"]),
                        "--format",
                        "jsonl",
                    ]
                    + list(extra)
                )
                == 0
            )
            return capsys.readouterr().out

        baseline = audit_jsonl(workspace["model"])
        assert baseline
        by_ref = audit_jsonl("loads@latest", ["--registry", str(registry)])
        assert by_ref == baseline

    def test_registry_env_var_fallback(self, workspace, tmp_path, monkeypatch, capsys):
        _fitted_workspace(workspace)
        monkeypatch.setenv("REPRO_REGISTRY", str(tmp_path / "registry"))
        assert (
            main(
                [
                    "fit",
                    "--schema",
                    str(workspace["schema"]),
                    "--input",
                    str(workspace["dirty"]),
                    "--register",
                    "loads",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["models", "list"]) == 0
        assert "loads" in capsys.readouterr().out

    def test_registry_commands_without_registry_rejected(self):
        with pytest.raises(SystemExit, match=r"\$REPRO_REGISTRY"):
            main(["models", "list"])

    def test_missing_reference_gives_clear_error(self, workspace, tmp_path):
        _fitted_workspace(workspace)
        with pytest.raises(SystemExit, match="error: no model named"):
            main(
                [
                    "audit",
                    "--model",
                    "ghost@v1",
                    "--registry",
                    str(tmp_path / "registry"),
                    "--input",
                    str(workspace["dirty"]),
                ]
            )


class TestInterruptExits:
    """Interactive failure modes must exit cleanly: Ctrl-C → 130,
    a consumer closing the pipe early → 0, never a traceback."""

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "schema", interrupted)
        assert main(["schema", "--kind", "base", "--out", "/dev/null"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_broken_pipe_exits_0(self, monkeypatch, capsys):
        import repro.cli as cli

        def pipe_gone(args):
            raise BrokenPipeError

        monkeypatch.setitem(cli._COMMANDS, "schema", pipe_gone)
        assert main(["schema", "--kind", "base", "--out", "/dev/null"]) == 0

    def test_shell_pipeline_truncation_is_clean(self, workspace, tmp_path):
        """`repro audit … --format jsonl | head -1` must leave exit 0 on
        the repro side of the pipe (pipefail makes a nonzero exit fatal)."""
        import os
        import subprocess
        import sys

        _fitted_workspace(workspace)
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        command = (
            "set -o pipefail; "
            f"{sys.executable} -m repro audit --model {workspace['model']} "
            f"--input {workspace['dirty']} --format jsonl | head -n 1"
        )
        proc = subprocess.run(
            ["bash", "-c", command],
            cwd=repo,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") == 1  # head got its line
        assert "Traceback" not in proc.stderr


class TestMonitorCli:
    """`repro monitor`: stdout carries exactly the findings JSONL, the
    summary rides on stderr, resume continues byte-identically, and
    `--refit auto` moves `latest` in the registry."""

    @pytest.fixture
    def stand(self, tmp_path):
        import random

        from repro.core import AuditorConfig, AuditSession
        from repro.io import open_sink
        from repro.registry import ModelRegistry
        from repro.schema import Schema, Table, nominal, numeric

        def build(n, seed, error_rate):
            rng = random.Random(seed)
            rule = {"a": "x", "b": "y", "c": "z"}
            rows = []
            for _ in range(n):
                a = rng.choice(["a", "b", "c"])
                b = (
                    rule[a]
                    if rng.random() > error_rate
                    else rng.choice(["x", "y", "z"])
                )
                rows.append([a, b, rng.randint(0, 100)])
            schema = Schema(
                [
                    nominal("A", ["a", "b", "c"]),
                    nominal("B", ["x", "y", "z"]),
                    numeric("N", 0, 100, integer=True),
                ]
            )
            return Table(schema, rows)

        train = build(1200, seed=21, error_rate=0.02)
        stream = build(768, seed=4, error_rate=0.2)
        session = AuditSession(
            train.schema, AuditorConfig(min_error_confidence=0.8)
        ).fit(train)
        model = tmp_path / "model.json"
        session.save(model)
        registry_dir = tmp_path / "registry"
        session.save_to_registry(ModelRegistry(registry_dir), "loads")
        source = tmp_path / "stream.jsonl"
        with open_sink(stream.schema, source) as sink:
            sink.write(stream)
        # a stream whose error rate steps up mid-way: the drift scenario
        shifted = Table(
            stream.schema,
            build(1024, seed=31, error_rate=0.02).rows
            + build(1024, seed=32, error_rate=0.4).rows,
        )
        drifting = tmp_path / "drifting.jsonl"
        with open_sink(shifted.schema, drifting) as sink:
            sink.write(shifted)
        return {
            "dir": tmp_path,
            "build": build,
            "model": model,
            "registry": registry_dir,
            "source": source,
            "drifting": drifting,
        }

    def test_catchup_stdout_is_exactly_the_findings_file(self, stand, capsys):
        assert (
            main(
                [
                    "monitor",
                    str(stand["source"]),
                    "--model",
                    str(stand["model"]),
                    "--window-rows",
                    "128",
                ]
            )
            == 0
        )
        out, err = capsys.readouterr()
        findings_file = stand["dir"] / "stream.jsonl.findings.jsonl"
        assert out == findings_file.read_text()
        assert "monitored 768 rows in 6 windows" in err
        # the watermark landed next to the findings by default
        assert (stand["dir"] / "stream.jsonl.findings.jsonl.state").exists()

    def test_ranked_out_matches_oneshot_audit(self, stand, capsys):
        ranked = stand["dir"] / "ranked.jsonl"
        assert (
            main(
                [
                    "monitor",
                    str(stand["source"]),
                    "--model",
                    str(stand["model"]),
                    "--window-rows",
                    "128",
                    "--ranked-out",
                    str(ranked),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "audit",
                    "--model",
                    str(stand["model"]),
                    "--input",
                    str(stand["source"]),
                    "--format",
                    "jsonl",
                ]
            )
            == 0
        )
        oneshot = capsys.readouterr().out
        assert ranked.read_text() == oneshot

    def test_resume_after_append_is_byte_identical(self, stand, capsys):
        from repro.io import open_sink

        lines = stand["source"].read_text().splitlines(keepends=True)
        grow = stand["dir"] / "grow.jsonl"
        grow.write_text("".join(lines[:512]))  # 4 whole 128-row windows
        run = [
            "monitor",
            str(grow),
            "--model",
            str(stand["model"]),
            "--window-rows",
            "128",
        ]
        assert main(run) == 0
        first_err = capsys.readouterr().err
        assert "monitored 512 rows in 4 windows" in first_err
        with open(grow, "a") as handle:
            handle.write("".join(lines[512:]))
        assert main(run) == 0
        second_err = capsys.readouterr().err
        assert "monitored 768 rows in 6 windows" in second_err  # cumulative

        # a fresh, uninterrupted run over the full stream: same bytes
        fresh = stand["dir"] / "fresh.jsonl"
        fresh.write_text("".join(lines))
        assert (
            main(
                [
                    "monitor",
                    str(fresh),
                    "--model",
                    str(stand["model"]),
                    "--window-rows",
                    "128",
                ]
            )
            == 0
        )
        assert (stand["dir"] / "grow.jsonl.findings.jsonl").read_bytes() == (
            stand["dir"] / "fresh.jsonl.findings.jsonl"
        ).read_bytes()

    def test_auto_refit_moves_latest_in_the_registry(self, stand, capsys):
        from repro.registry import ModelRegistry

        assert (
            main(
                [
                    "monitor",
                    str(stand["drifting"]),
                    "--model",
                    "loads@latest",
                    "--registry",
                    str(stand["registry"]),
                    "--window-rows",
                    "128",
                    "--refit",
                    "auto",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        registry = ModelRegistry(stand["registry"])
        assert registry.tags("loads")["latest"] == 2
        version = registry.resolve("loads@v2")
        assert version.provenance.extra["trigger"] == "drift"
        assert "monitored 2048 rows" in err

    def test_sqlite_source_requires_findings_out(self, stand):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "monitor",
                    f"sqlite:///{stand['dir']}/s.db",
                    "--model",
                    str(stand["model"]),
                ]
            )
        assert "--findings-out is required" in str(excinfo.value)

    def test_unknown_registry_model_gives_clear_error(self, stand):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "monitor",
                    str(stand["source"]),
                    "--model",
                    "ghost@v1",
                    "--registry",
                    str(stand["registry"]),
                ]
            )
        assert "error" in str(excinfo.value)

    def test_follow_mode_sigterm_exits_0(self, stand):
        """The deployment shape: a producer appends while `repro monitor
        --follow` tails; SIGTERM must exit 0 with drift logged on stderr
        and no traceback."""
        import os
        import signal
        import subprocess
        import sys
        import threading
        import time

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        lines = stand["drifting"].read_text().splitlines(keepends=True)
        grow = stand["dir"] / "follow.jsonl"
        grow.write_text("".join(lines[:1024]))  # the pre-step regime
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "monitor",
                str(grow),
                "--model",
                str(stand["model"]),
                "--follow",
                "--poll-interval",
                "0.1",
                "--window-rows",
                "128",
            ],
            cwd=repo,
            env=dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # drain both pipes while the monitor runs: unread, the findings
        # fill the pipe buffer and block the monitor in a write
        drained = {}
        readers = {
            name: threading.Thread(
                target=lambda name, stream: drained.update({name: stream.read()}),
                args=(name, stream),
                daemon=True,
            )
            for name, stream in (("stdout", proc.stdout), ("stderr", proc.stderr))
        }
        for reader in readers.values():
            reader.start()
        try:
            with open(grow, "a") as handle:  # the producer: polluted tail
                handle.write("".join(lines[1024:]))
            deadline = time.monotonic() + 30
            state = stand["dir"] / "follow.jsonl.findings.jsonl.state"
            while not (state.exists() and b'"rows": 2048' in state.read_bytes()):
                if time.monotonic() > deadline:
                    pytest.fail("the monitor did not commit all 2048 rows in 30 s")
                time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=15)
            for name, reader in readers.items():
                reader.join(timeout=15)
                if reader.is_alive():
                    pytest.fail(f"the monitor's {name} did not close within 15 s")
        finally:
            if proc.poll() is None:
                proc.kill()
        out, err = drained["stdout"], drained["stderr"]
        assert proc.returncode == 0, err
        assert "Traceback" not in err
        assert "drift detected" in err  # the step change was flagged
        assert out.count("\n") == sum(1 for l in out.splitlines())  # JSONL only
