"""Manifest, FD file, and CSV parsing."""

import json
from pathlib import Path

import pytest

from incshap import (
    ParseError,
    Schema,
    build_conflict_graph,
    database_to_csv,
    load_database,
    load_fds,
    load_instance,
    load_manifest,
    parse_fd_file,
)
from incshap.errors import LoadError

from conftest import DATA_DIR


SCHEMA = Schema.from_dict({"Trains": ["train", "departs", "arrives", "time", "duration"],
                           "R": ["A", "B"]})


class TestFdFile:
    def test_basic_line(self):
        fds = parse_fd_file("Trains: train time -> departs\n", SCHEMA)
        (fd,) = fds.fds
        assert fd.lhs == {"train", "time"} and fd.rhs == {"departs"}

    def test_empty_lhs(self):
        fds = parse_fd_file("R: _ -> A\n", SCHEMA)
        assert fds.fds[0].lhs == frozenset()

    def test_comments_blanks_duplicates(self):
        text = """
        # a comment
        R: A -> B
        R: A -> B  # trailing comment
        """
        assert len(parse_fd_file(text, SCHEMA)) == 1

    def test_empty_rhs_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_fd_file("R: A -> B\nR: A ->\n", SCHEMA)

    def test_unknown_relation_and_attribute(self):
        with pytest.raises(ParseError, match="unknown relation"):
            parse_fd_file("Q: A -> B", SCHEMA)
        with pytest.raises(ParseError, match="unknown attribute"):
            parse_fd_file("R: A -> Z", SCHEMA)

    def test_malformed_arrow(self):
        with pytest.raises(ParseError, match="'->'"):
            parse_fd_file("R: A B", SCHEMA)
        with pytest.raises(ParseError, match="'->'"):
            parse_fd_file("R: A -> B -> A", SCHEMA)

    def test_line_without_colon(self):
        with pytest.raises(ParseError, match="line 1: expected 'Relation: lhs -> rhs'"):
            parse_fd_file("R A -> B", SCHEMA)

    def test_underscore_must_stand_alone(self):
        with pytest.raises(ParseError, match="stand alone"):
            parse_fd_file("R: _ A -> B", SCHEMA)


class TestManifestAndCsv:
    def test_trains_roundtrip(self):
        manifest = load_manifest(DATA_DIR / "trains" / "manifest.json")
        db, fds = load_instance(manifest)
        assert [f.id for f in db.facts] == [f"Trains:{i}" for i in range(9)]
        assert len(fds) == 2

    def test_csv_serialization_roundtrip(self, tmp_path):
        manifest = load_manifest(DATA_DIR / "trains" / "manifest.json")
        db, fds = load_instance(manifest)
        text = database_to_csv(db, "Trains")
        (tmp_path / "again.csv").write_text(text)
        again_manifest = _write_manifest(
            tmp_path,
            {"Trains": list(db.schema.attributes("Trains"))},
            {"Trains": "again.csv"},
            (DATA_DIR / "trains" / "trains.fds").read_text(),
        )
        db2 = load_database(load_manifest(again_manifest))
        assert [f.id for f in db2.facts] == [f.id for f in db.facts]
        g1 = build_conflict_graph(db, fds)["Trains"].edges
        g2 = build_conflict_graph(db2, fds)["Trains"].edges
        assert g1 == g2

    def test_header_mismatch(self, tmp_path):
        path = _write_manifest(
            tmp_path, {"R": ["A", "B"]}, {"R": "r.csv"}, "R: A -> B\n"
        )
        (tmp_path / "r.csv").write_text("A,C\nx,y\n")
        with pytest.raises(LoadError, match="header"):
            load_database(load_manifest(path))

    def test_duplicate_rows_name_both_lines(self, tmp_path):
        path = _write_manifest(
            tmp_path, {"R": ["A", "B"]}, {"R": "r.csv"}, "R: A -> B\n"
        )
        (tmp_path / "r.csv").write_text("A,B\nx,y\nz,w\nx,y\n")
        with pytest.raises(LoadError, match="line 4 duplicates line 2"):
            load_database(load_manifest(path))

    def test_arity_mismatch_names_line(self, tmp_path):
        path = _write_manifest(
            tmp_path, {"R": ["A", "B"]}, {"R": "r.csv"}, "R: A -> B\n"
        )
        (tmp_path / "r.csv").write_text("A,B\nx\n")
        with pytest.raises(LoadError, match="line 2"):
            load_database(load_manifest(path))

    def test_duplicate_in_a_later_relation_names_its_file(self, tmp_path):
        path = _write_manifest(
            tmp_path, {"R": ["A", "B"], "S": ["A", "B"]}, {"R": "r.csv", "S": "s.csv"},
            "R: A -> B\n",
        )
        (tmp_path / "r.csv").write_text("A,B\nx,y\nz,w\n")
        (tmp_path / "s.csv").write_text("A,B\nx,y\nz,w\nu,v\nz,w\n")
        with pytest.raises(LoadError, match=r"s\.csv: line 5 duplicates line 3$"):
            load_database(load_manifest(path))

    def test_line_numbers_count_records(self, tmp_path):
        """A quoted value over two physical lines is one record, one line."""
        path = _write_manifest(
            tmp_path, {"R": ["A", "B"]}, {"R": "r.csv"}, "R: A -> B\n"
        )
        (tmp_path / "r.csv").write_text('A,B\n"x\ny",1\nz,w\n"x\ny",1\n')
        with pytest.raises(LoadError, match="line 4 duplicates line 2$"):
            load_database(load_manifest(path))
        (tmp_path / "r.csv").write_text('A,B\n"x\ny",1\nz\n')
        with pytest.raises(LoadError, match="line 3 has 1 values, expected 2$"):
            load_database(load_manifest(path))

    def test_header_only_is_empty_relation(self, tmp_path):
        path = _write_manifest(
            tmp_path, {"R": ["A", "B"]}, {"R": "r.csv"}, "R: A -> B\n"
        )
        (tmp_path / "r.csv").write_text("A,B\n")
        db = load_database(load_manifest(path))
        assert len(db) == 0

    def test_relation_without_data_is_empty(self, tmp_path):
        path = _write_manifest(tmp_path, {"R": ["A", "B"]}, {}, "R: A -> B\n")
        db = load_database(load_manifest(path))
        assert len(db) == 0

    def test_missing_keys_rejected(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"schema": {"R": ["A"]}}))
        with pytest.raises(LoadError, match="missing"):
            load_manifest(bad)

    @pytest.mark.parametrize(
        "manifest, message",
        [
            (["schema", "data", "fds"], "must hold a JSON object"),
            ({"schema": ["R"], "data": {}, "fds": "deps.fds"}, "'schema' must be an object"),
            ({"schema": {"R": ["A"]}, "data": ["r.csv"], "fds": "deps.fds"},
             "'data' must be an object"),
            ({"schema": {"R": ["A"]}, "data": {}, "fds": 3}, "'fds' must be a string"),
            ({"schema": {"R": "AB"}, "data": {}, "fds": "deps.fds"},
             "schema of 'R' must be a list of strings"),
            ({"schema": {"R": ["A", 1]}, "data": {}, "fds": "deps.fds"},
             "schema of 'R' must be a list of strings"),
            ({"schema": {"R": ["A"]}, "data": {"R": 3}, "fds": "deps.fds"},
             "data path of 'R' must be a string"),
            ({"schema": {"R": ["A"]}, "data": {"S": "s.csv"}, "fds": "deps.fds"},
             "manifest data names unknown relation 'S'"),
        ],
    )
    def test_malformed_manifest_names_key(self, tmp_path, manifest, message):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(manifest))
        with pytest.raises(LoadError, match=message):
            load_manifest(bad)

    def test_missing_and_unreadable_files_named(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("{")
        with pytest.raises(LoadError, match="is not valid JSON"):
            load_manifest(bad)
        path = _write_manifest(tmp_path, {"R": ["A", "B"]}, {"R": "r.csv"}, "R: A -> B\n")
        with pytest.raises(LoadError, match="data file not found: .*r\\.csv$"):
            load_database(load_manifest(path))
        (tmp_path / "r.csv").write_text("")
        with pytest.raises(LoadError, match=r"r\.csv: missing header row$"):
            load_database(load_manifest(path))
        (tmp_path / "deps.fds").unlink()
        with pytest.raises(LoadError, match=r"FD file not found: .*deps\.fds$"):
            load_fds(load_manifest(path))

    @pytest.mark.parametrize("name", ["manifest.json", "r.csv", "deps.fds"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, name):
        """A manifest, CSV or FD file may start with a UTF-8 byte-order mark."""
        path = _write_manifest(tmp_path, {"R": ["A", "B"]}, {"R": "r.csv"}, "R: A -> B\n")
        (tmp_path / "r.csv").write_text("A,B\nx,y\nx,z\n", encoding="utf-8")
        text = (tmp_path / name).read_text(encoding="utf-8")
        (tmp_path / name).write_text("\ufeff" + text, encoding="utf-8")
        db, fds = load_instance(load_manifest(path))
        assert db.schema.attributes("R") == ("A", "B")
        assert [fact.values for fact in db.facts] == [("x", "y"), ("x", "z")]
        assert [(fd.relation, fd.lhs, fd.rhs) for fd in fds] == [("R", {"A"}, {"B"})]

    def test_decoding_errors_count_the_byte_order_mark(self, tmp_path):
        path = _write_manifest(tmp_path, {"R": ["A", "B"]}, {"R": "r.csv"}, "R: A -> B\n")
        for prefix, offset in ((b"", 7), (b"\xef\xbb\xbf", 10)):
            (tmp_path / "r.csv").write_bytes(prefix + b"A,B\ncaf\xe9,1\n")
            with pytest.raises(
                LoadError, match=f"the data file is not UTF-8: invalid continuation byte at byte {offset}$"
            ):
                load_database(load_manifest(path))

    def test_quoted_values_roundtrip(self, tmp_path):
        path = _write_manifest(
            tmp_path, {"R": ["A", "B"]}, {"R": "r.csv"}, "R: A -> B\n"
        )
        (tmp_path / "r.csv").write_text('A,B\n"x,1",y\n')
        db = load_database(load_manifest(path))
        assert db.facts[0].values == ("x,1", "y")
        assert database_to_csv(db, "R").splitlines()[1] == '"x,1",y'


def _write_manifest(tmp_path: Path, schema, data, fds_text: str) -> Path:
    (tmp_path / "deps.fds").write_text(fds_text)
    manifest = {"schema": schema, "data": data, "fds": "deps.fds"}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path
