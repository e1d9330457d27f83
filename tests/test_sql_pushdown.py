"""SQL pushdown parity suite: ``engine="sql"`` must match the in-memory
audit finding for finding.

The contract under test (``docs/sql_compilation.md``): for every
compilable model family — tree, 1R, PRISM, naive Bayes — the pushdown
engine returns the same :class:`~repro.core.findings.AuditReport`
content as the in-memory batch path: the identical ranked findings list
(bit-equal confidences included, since ``Finding`` equality compares the
floats), the same suspicious-row ranking, and the same record
confidences on every flagged row. The fixtures deliberately cover the
awkward inputs: nulls, out-of-distribution values the training table
never showed, exact ties, domain-boundary numerics/dates, tables with
deleted rows (rowid gaps), and plans split over several statements by
the dialect's limits.

Non-compilable configurations (kNN), non-SQLite sources and pushdowns
that fail at run time (``WITHOUT ROWID`` tables) must fall back to the
in-memory path cleanly — same findings, one-line notice. The engine is
chosen in one place, :meth:`AuditSession.audit_source`; the CLI and the
service only pass the request on and report its ``engine`` and
``notice``.
"""

import datetime
import random
import sqlite3

import pytest

from repro.compile import (
    ALIAS_PREFIX,
    SQLITE,
    NotCompilable,
    SqlDialect,
    audit_connection,
    compilation_plan,
)
from repro.compile import engine as engine_module
from repro.core.auditor import AuditorConfig, DataAuditor
from repro.core.findings import AuditReport
from repro.core.session import AuditSession
from repro.io.csv_backend import CsvTableSink
from repro.io.registry import open_source, write_table
from repro.io.sqlite_backend import SqliteTableSink
from repro.mining.knn import KnnClassifier
from repro.mining.naive_bayes import NaiveBayesClassifier
from repro.mining.rule_induction import OneRClassifier, PrismClassifier
from repro.mining.tree_classifier import TreeClassifier
from repro.quis import generate_quis_sample
from repro.schema import Schema, Table, date, nominal, numeric

FAMILIES = {
    "tree": lambda config: TreeClassifier(),
    "one_r": lambda config: OneRClassifier(n_bins=config.n_bins),
    "prism": lambda config: PrismClassifier(n_bins=config.n_bins),
    "naive_bayes": lambda config: NaiveBayesClassifier(n_bins=config.n_bins),
}


def _rich_schema() -> Schema:
    return Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y"]),
            numeric("N", 0, 100, integer=True),
            numeric("M", 0, 100, integer=True),
            numeric("F", 0.0, 1.0),
            date("D", datetime.date(2000, 1, 1), datetime.date(2001, 12, 31)),
        ]
    )


def _rich_tables(seed=29, n_train=600, n_audit=260):
    """(train, audit) over every attribute kind.

    Training only ever sees ``A in {a, b}``; the audit table adds ``c``
    rows (in-domain but out-of-distribution), nulls in every column,
    exact-tie duplicates, and domain-boundary numerics and dates.
    """
    rng = random.Random(seed)
    schema = _rich_schema()
    rule = {"a": "x", "b": "y", "c": "x"}
    bands = {"a": (0, 30), "b": (35, 65), "c": (70, 100)}

    def row(a):
        b = rule[a] if rng.random() > 0.03 else rng.choice(["x", "y"])
        base = datetime.date(2001 if a == "c" else 2000, 1, 1)
        return [
            a,
            b,
            rng.randint(*bands[a]),
            rng.randint(0, 100),
            round(rng.random(), 6),
            base + datetime.timedelta(days=rng.randrange(300)),
        ]

    train = Table(schema, [row(rng.choice("ab")) for _ in range(n_train)])
    audit_rows = [row(rng.choice("abc")) for _ in range(n_audit)]
    for i in range(0, n_audit, 17):  # nulls, cycling through the columns
        audit_rows[i][(i // 17) % len(schema)] = None
    audit_rows += [  # exact ties: identical inputs, conflicting classes
        ["a", "x", 5, 50, 0.5, datetime.date(2000, 6, 1)],
        ["a", "y", 5, 50, 0.5, datetime.date(2000, 6, 1)],
    ]
    audit_rows += [  # domain boundaries
        ["b", "y", 0, 100, 0.0, datetime.date(2000, 1, 1)],
        ["b", "y", 100, 0, 1.0, datetime.date(2001, 12, 31)],
    ]
    return train, Table(schema, audit_rows)


def _fitted(factory, train):
    config = AuditorConfig(min_error_confidence=0.8, classifier_factory=factory)
    return DataAuditor(train.schema, config).fit(train)


def _warehouse(audit: Table, directory):
    database = directory / "wh.db"
    with SqliteTableSink(audit.schema, database, table="loads") as sink:
        sink.write(audit)
    return database


def _pushdown(auditor, database, plan=None) -> AuditReport:
    """The in-database audit of *database*'s one table."""
    connection = sqlite3.connect(database)
    try:
        return audit_connection(auditor, connection, plan=plan)
    finally:
        connection.close()


def _drop_rowid(database, schema: Schema) -> None:
    """Move table ``loads`` of *database* into a ``WITHOUT ROWID`` table
    keyed on every column (rows with nulls or duplicates drop out): the
    plan compiles, but the pushdown fails at run time without ``rowid``."""
    names = ", ".join(f'"{name}"' for name in schema.names)
    with sqlite3.connect(database) as connection:
        connection.execute(
            f"CREATE TABLE keyed ({names}, PRIMARY KEY ({names})) WITHOUT ROWID"
        )
        connection.execute(f"INSERT OR IGNORE INTO keyed SELECT {names} FROM loads")
        connection.execute("DROP TABLE loads")


def _extract(schema: Schema, database) -> Table:
    with open_source(schema, str(database)) as source:
        return source.read()


def _assert_same_error(auditor, schema: Schema, database) -> str:
    """The pushdown raises exactly the extract path's error; returns it."""
    with pytest.raises(ValueError) as via_extract:
        _extract(schema, database)
    with pytest.raises(ValueError) as via_pushdown:
        _pushdown(auditor, database)
    assert str(via_pushdown.value) == str(via_extract.value)
    return str(via_extract.value)


def _assert_reports_match(memory: AuditReport, sql: AuditReport) -> None:
    assert sql.n_rows == memory.n_rows
    assert sql.findings == memory.findings  # Finding eq is bit-exact on floats
    assert sql.suspicious_rows() == memory.suspicious_rows()
    assert sql.min_error_confidence == memory.min_error_confidence
    for finding in memory.findings:  # flagged rows keep exact confidences
        assert sql.confidence_of(finding.row) == memory.confidence_of(finding.row)


class TestFamilyParity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_findings_byte_identical(self, family, tmp_path):
        train, audit = _rich_tables()
        auditor = _fitted(FAMILIES[family], train)
        plan = compilation_plan(auditor)
        assert plan.compilable and plan.reasons == {}
        memory = auditor.audit(audit)
        assert memory.findings, "fixture must actually flag deviations"
        _assert_reports_match(memory, _pushdown(auditor, _warehouse(audit, tmp_path)))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_self_audit_parity(self, family, tmp_path):
        # fit table == audit table: the all-clean regime where the screen
        # should certify nearly everything without a Python recheck
        train, _ = _rich_tables()
        auditor = _fitted(FAMILIES[family], train)
        _assert_reports_match(
            auditor.audit(train), _pushdown(auditor, _warehouse(train, tmp_path))
        )

    def test_record_confidence_censoring_is_one_sided(self, tmp_path):
        # the single documented divergence: rows the screen certifies
        # clean keep confidence 0.0; flagged rows stay exact, so the
        # SQL confidence can never exceed the in-memory one
        train, audit = _rich_tables()
        auditor = _fitted(FAMILIES["tree"], train)
        memory = auditor.audit(audit)
        sql = _pushdown(auditor, _warehouse(audit, tmp_path))
        assert any(
            s < m for s, m in zip(sql.record_confidence, memory.record_confidence)
        ), "fixture must exercise the censoring"
        for s, m in zip(sql.record_confidence, memory.record_confidence):
            assert s <= m

    def test_engine_flag_on_audit(self, tmp_path):
        train, audit = _rich_tables()
        auditor = _fitted(FAMILIES["tree"], train)
        session = AuditSession(auditor=auditor)
        database = str(_warehouse(audit, tmp_path))
        sql = session.audit_source(database, engine="sql")
        assert AuditReport.merge(sql).findings == auditor.audit(audit).findings
        assert sql.engine == "sql"
        memory = session.audit_source(database, engine="memory")
        assert AuditReport.merge(memory).findings == auditor.audit(audit).findings
        assert memory.engine == "memory"
        with pytest.raises(ValueError, match="engine"):
            session.audit_source(database, engine="duckdb")


class TestDatabaseFiles:
    @pytest.fixture
    def warehouse(self, tmp_path):
        train, audit = _rich_tables()
        auditor = _fitted(FAMILIES["tree"], train)
        database = tmp_path / "wh.db"
        with SqliteTableSink(audit.schema, database, table="loads") as sink:
            sink.write(audit)
        return auditor, audit, database

    def test_audit_sqlite_matches_memory(self, warehouse):
        auditor, audit, database = warehouse
        _assert_reports_match(auditor.audit(audit), _pushdown(auditor, database))

    def test_audit_source_sql_yields_one_whole_table_report(self, warehouse):
        auditor, audit, database = warehouse
        session = AuditSession(auditor=auditor)
        url = f"sqlite:///{database}?table=loads"
        reports = list(session.audit_source(url, chunk_size=50, engine="sql"))
        assert len(reports) == 1  # pushdown: no extraction, no chunking
        _assert_reports_match(auditor.audit(audit), reports[0])

    def test_mistyped_cell_raises_the_extraction_error(self, warehouse):
        # a text value in a numeric column must fail with the exact error
        # the extract-and-audit path raises — the dirty guard routes the
        # row to the same converter
        auditor, audit, database = warehouse
        with sqlite3.connect(database) as connection:
            connection.execute("UPDATE loads SET N = 'bogus' WHERE rowid = 3")
        with open_source(audit.schema, str(database)) as source:
            with pytest.raises(ValueError) as via_extract:
                source.read()
        with pytest.raises(ValueError) as via_pushdown:
            _pushdown(auditor, database)
        assert str(via_pushdown.value) == str(via_extract.value)

    def test_non_integral_real_in_integer_column_raises_the_extraction_error(
        self, warehouse
    ):
        # REAL storage in an integer domain is clean only when integral:
        # 3.5 must reach the converter and fail as the extract path does
        auditor, audit, database = warehouse
        with sqlite3.connect(database) as connection:
            connection.execute("UPDATE loads SET M = 3.5 WHERE rowid = 3")
        message = _assert_same_error(auditor, audit.schema, database)
        assert message.startswith("row 3, attribute 'M'")

    def test_convertible_dirty_cells_are_rechecked_for_every_attribute(
        self, warehouse
    ):
        # numbers stored as TEXT convert on extract but defeat the SQL
        # routing, so every attribute must re-check every dirty row
        auditor, audit, database = warehouse
        with sqlite3.connect(database) as connection:
            connection.execute("UPDATE loads SET N = CAST(N AS TEXT)")
        memory = auditor.audit(_extract(audit.schema, database))
        assert memory.findings == auditor.audit(audit).findings
        _assert_reports_match(memory, _pushdown(auditor, database))

    def test_table_resolution_errors_match_the_source(self, warehouse):
        # one resolver: an ambiguous database fails with the source's words
        auditor, audit, database = warehouse
        with sqlite3.connect(database) as connection:
            connection.execute("CREATE TABLE other (x)")
        with pytest.raises(ValueError) as via_source:
            open_source(audit.schema, str(database.resolve()))
        with pytest.raises(ValueError) as via_pushdown:
            _pushdown(auditor, database)
        assert str(via_pushdown.value) == str(via_source.value)
        assert "select one with" in str(via_source.value)

    def test_missing_database(self, warehouse):
        auditor, _, database = warehouse
        session = AuditSession(auditor=auditor)
        with pytest.raises(FileNotFoundError):
            list(session.audit_source(database.with_name("absent.db"), engine="sql"))


class TestRowidGaps:
    """Deleted rows leave gaps in ``rowid``; positions must still count
    rows in ``rowid`` order, as the extract path does."""

    @pytest.fixture(params=sorted(FAMILIES))
    def gapped(self, request, tmp_path):
        train, audit = _rich_tables()
        auditor = _fitted(FAMILIES[request.param], train)
        database = _warehouse(audit, tmp_path)
        with sqlite3.connect(database) as connection:
            connection.execute("DELETE FROM loads WHERE rowid % 7 = 0 OR rowid < 4")
        return auditor, audit.schema, database

    def test_findings_match_the_extract_path(self, gapped):
        auditor, schema, database = gapped
        memory = auditor.audit(_extract(schema, database))
        assert memory.findings, "fixture must actually flag deviations"
        _assert_reports_match(memory, _pushdown(auditor, database))

    def test_mistyped_cell_after_a_gap_raises_the_extraction_error(self, gapped):
        auditor, schema, database = gapped
        with sqlite3.connect(database) as connection:
            connection.execute("UPDATE loads SET N = 'bogus' WHERE rowid = 30")
        message = _assert_same_error(auditor, schema, database)
        # rowids 1-3, 7, 14, 21 and 28 are gone: rowid 30 is the 23rd row
        assert message.startswith("row 23, attribute 'N'")


class TestFallbacks:
    def test_knn_is_not_compilable(self, tmp_path):
        train, audit = _rich_tables()
        auditor = _fitted(lambda config: KnnClassifier(), train)
        plan = compilation_plan(auditor)
        assert not plan.compilable
        assert "auditing in memory" in plan.notice()
        assert "KnnClassifier" in plan.notice()
        database = _warehouse(audit, tmp_path)
        with pytest.raises(NotCompilable):
            _pushdown(auditor, database)
        # engine="sql" falls back to the identical memory audit, with the
        # plan's notice
        run = AuditSession(auditor=auditor).audit_source(database, engine="sql")
        assert AuditReport.merge(run).findings == auditor.audit(audit).findings
        assert (run.engine, run.notice) == ("memory", plan.notice())

    def test_audit_source_non_sqlite_falls_back_chunked(self, tmp_path):
        train, audit = _rich_tables()
        auditor = _fitted(FAMILIES["tree"], train)
        path = tmp_path / "loads.csv"
        with CsvTableSink(audit.schema, path) as sink:
            sink.write(audit)
        session = AuditSession(auditor=auditor)
        reports = list(session.audit_source(str(path), chunk_size=50, engine="sql"))
        assert len(reports) > 1  # chunked extraction, not pushdown
        merged = AuditReport.merge(reports)
        assert merged.findings == auditor.audit(audit).findings

    def test_audit_source_rejects_unknown_engine(self, tmp_path):
        train, _ = _rich_tables()
        auditor = _fitted(FAMILIES["tree"], train)
        session = AuditSession(auditor=auditor)
        with pytest.raises(ValueError, match="engine"):
            next(session.audit_source(str(tmp_path / "x.csv"), engine="duckdb"))


class TestEngineDecision:
    """``AuditSession.audit_source`` is the one place the engine is
    chosen; its run says which engine ran and, after a requested
    pushdown did not, why."""

    NOT_SQLITE = "source is not SQLite; auditing in memory"

    @pytest.fixture
    def fitted(self):
        train, audit = _rich_tables()
        auditor = _fitted(FAMILIES["tree"], train)
        return AuditSession(auditor=auditor), audit

    def test_non_sqlite_source_notice(self, fitted, tmp_path):
        session, audit = fitted
        path = tmp_path / "loads.csv"
        write_table(audit, path)
        run = session.audit_source(str(path), engine="sql")
        assert AuditReport.merge(run).findings == session.audit(audit).findings
        assert (run.engine, run.notice) == ("memory", self.NOT_SQLITE)

    def test_opened_source_keeps_its_format(self, fitted, tmp_path):
        # a SQLite database under a name no format is inferred from
        session, audit = fitted
        path = tmp_path / "load.txt"
        _warehouse(audit, tmp_path).rename(path)
        with open_source(audit.schema, path, format="sqlite") as source:
            run = session.audit_source(source, chunk_size=50, engine="sql")
            reports = list(run)
        assert (run.engine, run.notice) == ("sql", None)
        assert len(reports) == 1
        _assert_reports_match(session.audit(audit), reports[0])

    def test_runtime_failure_falls_back_with_notice(self, fitted, tmp_path):
        session, audit = fitted
        database = _warehouse(audit, tmp_path)
        _drop_rowid(database, audit.schema)
        run = session.audit_source(database, chunk_size=50, engine="sql")
        expected = session.audit(_extract(audit.schema, database))
        assert AuditReport.merge(run).findings == expected.findings
        assert run.engine == "memory"
        assert run.notice.startswith("SQL pushdown failed at runtime: ")
        assert run.notice.endswith("; auditing in memory")

    @pytest.mark.parametrize(
        "name, engine, notice",
        [("loads.csv", "memory", NOT_SQLITE), ("wh.db", "sql", None)],
    )
    def test_readable_without_rows(self, fitted, tmp_path, name, engine, notice):
        session, audit = fitted
        path = tmp_path / name
        write_table(Table(audit.schema), path)
        run = session.audit_source(path, engine="sql")
        assert sum(report.n_rows for report in run) == 0
        assert (run.engine, run.notice) == (engine, notice)


class TestCompilationPlan:
    def test_statements_cover_audited_attributes(self):
        train, _ = _rich_tables()
        auditor = _fitted(FAMILIES["tree"], train)
        plan = compilation_plan(auditor)
        attributes = [a for s in plan.statements for a in s.attributes]
        assert attributes == list(auditor.classifiers)
        for statement in plan.statements:
            sql = statement.sql('"loads"')
            assert '"loads"' in sql
            assert "ROW_NUMBER" not in sql.upper()
            assert isinstance(statement.params, tuple)

    @pytest.mark.parametrize(
        "limit", ["max_parameters", "max_expression_depth", "max_columns"]
    )
    def test_dialect_limits_split_the_screen(self, tmp_path, monkeypatch, limit):
        # 1R has no tree-depth check, so every limit can bite on packing
        train, audit = _rich_tables()
        auditor = _fitted(FAMILIES["one_r"], train)
        database = _warehouse(audit, tmp_path)
        fused = compilation_plan(auditor)
        assert len(fused.statements) == 1
        (statement,) = fused.statements
        n_attributes = len(statement.attributes)
        if limit == "max_columns":
            # one column short of rowid, dirty, the cells and 2 aliases each
            tight = 2 + len(audit.schema) + 2 * n_attributes - 1
            monkeypatch.setattr(engine_module, "_MAX_COLUMNS", tight)
            dialect = SQLITE
        else:
            tight = {
                "max_parameters": len(statement.params) - 1,
                "max_expression_depth": n_attributes,  # OR of dirty + flags
            }[limit]
            dialect = SqlDialect("sqlite", **{limit: tight})
        split = compilation_plan(auditor, dialect)
        assert split.compilable, split.reasons
        assert len(split.statements) >= 2
        attributes = [a for s in split.statements for a in s.attributes]
        assert attributes == list(auditor.classifiers)
        expected = _pushdown(auditor, database, plan=fused)
        actual = _pushdown(auditor, database, plan=split)
        _assert_reports_match(auditor.audit(audit), actual)
        assert actual.findings == expected.findings
        assert actual.record_confidence == expected.record_confidence

    def test_attribute_over_the_parameter_cap_is_not_compilable(self, tmp_path):
        train, audit = _rich_tables()
        auditor = _fitted(FAMILIES["tree"], train)
        plan = compilation_plan(auditor, SqlDialect("sqlite", max_parameters=1))
        assert not plan.compilable
        assert set(plan.reasons) == set(auditor.classifiers)
        assert "bound parameters" in plan.notice()
        with pytest.raises(NotCompilable):
            _pushdown(auditor, _warehouse(audit, tmp_path), plan=plan)

    def test_rowid_column_falls_back(self, tmp_path):
        # a column named rowid shadows the row identity positions come from
        schema = Schema([nominal("RowId", ["a", "b"]), nominal("B", ["x", "y"])])
        rng = random.Random(5)
        rows = []
        for _ in range(200):
            key = rng.choice("ab")
            # B follows RowId but for a few deviations, so findings name rows
            deviates = rng.random() < 0.05
            rows.append([key, rng.choice("xy") if deviates else {"a": "x", "b": "y"}[key]])
        table = Table(schema, rows)
        auditor = DataAuditor(schema, AuditorConfig(min_error_confidence=0.8))
        auditor.fit(table)
        plan = compilation_plan(auditor)
        assert not plan.compilable
        assert "rowid" in plan.notice()
        database = _warehouse(table, tmp_path)
        run = AuditSession(auditor=auditor).audit_source(database, engine="sql")
        expected = auditor.audit(table).findings
        assert expected
        assert AuditReport.merge(run).findings == expected
        assert (run.engine, run.notice) == ("memory", plan.notice())

    def test_unfitted_auditor_is_rejected(self):
        with pytest.raises(RuntimeError, match="fit"):
            compilation_plan(DataAuditor(_rich_schema()))

    def test_alias_collision_falls_back(self):
        schema = Schema(
            [
                nominal(f"{ALIAS_PREFIX}rn", ["a", "b"]),
                nominal("B", ["x", "y"]),
                numeric("N", 0, 3, integer=True),
            ]
        )
        rng = random.Random(5)
        rows = [
            [rng.choice("ab"), rng.choice("xy"), rng.randint(0, 3)] for _ in range(200)
        ]
        table = Table(schema, rows)
        auditor = DataAuditor(schema, AuditorConfig(min_error_confidence=0.8))
        auditor.fit(table)
        plan = compilation_plan(auditor)
        assert not plan.compilable
        assert "auditing in memory" in plan.notice()


class TestQuisSample:
    def test_pushdown_matches_extract_and_screens_few_rows(self, tmp_path):
        sample = generate_quis_sample(4_000, seed=2003)
        auditor = DataAuditor(sample.schema, AuditorConfig(min_error_confidence=0.8))
        auditor.fit(sample.dirty)
        database = tmp_path / "warehouse.db"
        write_table(sample.dirty, database)
        extracted = auditor.audit(_extract(sample.schema, database))
        pushed = _pushdown(auditor, database)
        assert pushed.findings == extracted.findings
        assert pushed.suspicious_rows() == extracted.suspicious_rows()
        # the screen ships a small share of the table's rows (~3% here)
        plan = compilation_plan(auditor)
        with sqlite3.connect(database) as connection:
            shipped = sum(
                len(connection.execute(s.sql('"data"'), s.params).fetchall())
                for s in plan.statements
            )
        assert shipped < 0.1 * sample.dirty.n_rows


class TestCli:
    @pytest.fixture
    def workspace(self, tmp_path):
        from repro.core.serialize import save_auditor

        train, audit = _rich_tables()
        auditor = _fitted(FAMILIES["tree"], train)
        model = tmp_path / "model.json"
        save_auditor(auditor, model)
        database = tmp_path / "wh.db"
        with SqliteTableSink(audit.schema, database, table="loads") as sink:
            sink.write(audit)
        csv_path = tmp_path / "loads.csv"
        with CsvTableSink(audit.schema, csv_path) as sink:
            sink.write(audit)
        return {"model": model, "db": database, "csv": csv_path}

    def _audit_jsonl(self, capsys, model, location, *extra):
        from repro.cli import main

        args = ["audit", "--model", str(model), "--input", str(location)]
        args += ["--format", "jsonl", *extra]
        assert main(args) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_engine_sql_byte_identical_jsonl(self, workspace, capsys):
        url = f"sqlite:///{workspace['db']}?table=loads"
        memory_out, _ = self._audit_jsonl(capsys, workspace["model"], url)
        sql_out, sql_err = self._audit_jsonl(
            capsys, workspace["model"], url, "--engine", "sql"
        )
        assert sql_out == memory_out
        assert "note:" not in sql_err  # pushdown ran; no fallback notice

    def test_engine_sql_chunked_byte_identical(self, workspace, capsys):
        url = f"sqlite:///{workspace['db']}?table=loads"
        memory_out, _ = self._audit_jsonl(capsys, workspace["model"], url)
        sql_out, _ = self._audit_jsonl(
            capsys, workspace["model"], url, "--engine", "sql", "--chunk-size", "50"
        )
        assert sql_out == memory_out

    def test_engine_sql_honours_input_format(self, workspace, capsys, tmp_path):
        renamed = tmp_path / "load.txt"
        renamed.write_bytes(workspace["db"].read_bytes())
        memory_out, _ = self._audit_jsonl(capsys, workspace["model"], workspace["db"])
        sql_out, sql_err = self._audit_jsonl(
            capsys, workspace["model"], renamed,
            "--input-format", "sqlite", "--engine", "sql", "--chunk-size", "500",
        )
        assert sql_out == memory_out
        assert "note:" not in sql_err  # pushdown ran; no fallback notice

    def test_engine_sql_runtime_failure_notes_and_falls_back(
        self, workspace, capsys
    ):
        _drop_rowid(workspace["db"], _rich_schema())
        memory_out, _ = self._audit_jsonl(capsys, workspace["model"], workspace["db"])
        for chunking in ((), ("--chunk-size", "50")):
            sql_out, sql_err = self._audit_jsonl(
                capsys, workspace["model"], workspace["db"], "--engine", "sql",
                *chunking,
            )
            assert sql_out == memory_out
            (note,) = sql_err.splitlines()
            assert note.startswith("note: SQL pushdown failed at runtime: ")
            assert note.endswith("; auditing in memory")

    def test_engine_sql_on_csv_notes_and_falls_back(self, workspace, capsys):
        memory_out, _ = self._audit_jsonl(capsys, workspace["model"], workspace["csv"])
        sql_out, sql_err = self._audit_jsonl(
            capsys, workspace["model"], workspace["csv"], "--engine", "sql"
        )
        assert sql_out == memory_out
        assert "note: source is not SQLite; auditing in memory" in sql_err
