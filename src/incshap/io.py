"""File formats: the instance manifest, FD spec files, and CSV data.

A manifest is a JSON object with three keys: ``schema`` maps relation
names to ordered attribute lists, ``data`` maps relation names to CSV
paths (relative paths resolve against the manifest's directory), and
``fds`` names the FD spec file.  CSV files carry a header row that must
equal the schema's attribute list exactly; rows are loaded in order and
duplicate rows are rejected.  FD files hold one dependency per line:

    Relation: attr attr -> attr attr

with ``_`` for an empty left-hand side, ``#`` comments, and blank lines
ignored.  Every file is UTF-8, and a leading byte-order mark is skipped.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ArityError, DuplicateFactError, LoadError, ParseError
from .relational import FD, Database, FDSet, Schema


@dataclass(frozen=True)
class Manifest:
    schema: Schema
    data_paths: dict[str, Path]
    fds_path: Path


def _read_text(path: Path, what: str) -> str:
    """The text of a UTF-8 file, less a leading byte-order mark; a missing,
    unreadable or undecodable one is a `LoadError` that names it, with
    decoding errors at their byte offset in the file."""
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except FileNotFoundError:
        raise LoadError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise LoadError(f"{path}: cannot read the {what}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise LoadError(
            f"{path}: the {what} is not UTF-8: {exc.reason} at byte {exc.start}"
        ) from None


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        raw = json.loads(_read_text(path, "manifest"))
    except json.JSONDecodeError as exc:
        raise LoadError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise LoadError(f"manifest {path} must hold a JSON object")
    shapes = (("schema", dict, "an object"), ("data", dict, "an object"), ("fds", str, "a string"))
    for key, kind, expected in shapes:
        if key not in raw:
            raise LoadError(f"manifest {path} is missing the {key!r} key")
        if not isinstance(raw[key], kind):
            raise LoadError(f"manifest {path}: {key!r} must be {expected}")
    for relation, attrs in raw["schema"].items():
        if not isinstance(attrs, list) or not all(isinstance(a, str) for a in attrs):
            raise LoadError(
                f"manifest {path}: the schema of {relation!r} must be a list of strings"
            )
    schema = Schema.from_dict(raw["schema"])
    base = path.parent
    data_paths = {}
    for relation, rel_path in raw["data"].items():
        if not schema.has_relation(relation):
            raise LoadError(
                f"manifest data names unknown relation {relation!r}"
            )
        if not isinstance(rel_path, str):
            raise LoadError(
                f"manifest {path}: the data path of {relation!r} must be a string"
            )
        data_paths[relation] = base / rel_path
    return Manifest(schema, data_paths, base / raw["fds"])


def parse_fd_file(text: str, schema: Schema) -> FDSet:
    """Parse the FD spec grammar; duplicates are dropped, order preserved."""
    fds: list[FD] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'Relation: lhs -> rhs'", line=lineno)
        relation, _, rest = line.partition(":")
        relation = relation.strip()
        if not schema.has_relation(relation):
            raise ParseError(f"unknown relation {relation!r}", line=lineno)
        if rest.count("->") != 1:
            raise ParseError("expected exactly one '->'", line=lineno)
        left, _, right = rest.partition("->")
        lhs_tokens = left.split()
        rhs_tokens = right.split()
        if lhs_tokens == ["_"]:
            lhs_tokens = []
        elif "_" in lhs_tokens:
            raise ParseError("'_' must stand alone as the left-hand side", line=lineno)
        if not rhs_tokens:
            raise ParseError("empty right-hand side", line=lineno)
        known = set(schema.attributes(relation))
        for token in lhs_tokens + rhs_tokens:
            if token not in known:
                raise ParseError(
                    f"unknown attribute {token!r} in relation {relation!r}",
                    line=lineno,
                )
        fd = FD(relation, frozenset(lhs_tokens), frozenset(rhs_tokens))
        if fd not in fds:
            fds.append(fd)
    return FDSet(schema, tuple(fds))


def _load_relation_csv(attrs: tuple[str, ...], path: Path) -> list[list[str]]:
    """The data rows of a CSV file whose header is `attrs`."""
    rows = list(csv.reader(_io.StringIO(_read_text(path, "data file"))))
    if not rows:
        raise LoadError(f"{path}: missing header row")
    if tuple(rows[0]) != attrs:
        raise LoadError(
            f"{path}: header {rows[0]} does not match the schema "
            f"attributes {list(attrs)}"
        )
    return rows[1:]


def load_database(manifest: Manifest) -> Database:
    """Load all relations; fact ids follow CSV row order per relation.
    `Database` checks the facts; a bad one is named by file and record line."""
    rows = {
        relation: _load_relation_csv(attrs, manifest.data_paths[relation])
        for relation, attrs in manifest.schema.relations
        if relation in manifest.data_paths
    }
    try:
        return Database.build(manifest.schema, rows)
    except (ArityError, DuplicateFactError) as exc:
        fact = exc.fact
        where = f"{manifest.data_paths[fact.relation]}: line {fact.index + 2}"
        if isinstance(exc, DuplicateFactError):
            raise LoadError(f"{where} duplicates line {exc.first.index + 2}") from None
        expected = len(manifest.schema.attributes(fact.relation))
        raise LoadError(f"{where} has {len(fact.values)} values, expected {expected}") from None


def load_fds(manifest: Manifest) -> FDSet:
    """Load the FD file; a bad line is named by file and line, as in CSV files."""
    path = manifest.fds_path
    text = _read_text(path, "FD file")
    try:
        return parse_fd_file(text, manifest.schema)
    except ParseError as exc:
        raise LoadError(f"{path}: {exc}") from None


def load_instance(manifest: Manifest) -> tuple[Database, FDSet]:
    return load_database(manifest), load_fds(manifest)


def database_to_csv(db: Database, relation: str) -> str:
    """Serialize one relation back to CSV (round-trips through load)."""
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(db.schema.attributes(relation))
    for fact in db.facts_of(relation):
        writer.writerow(fact.values)
    return out.getvalue()
