"""What a fresh process imports: the package namespace loads each public
name on first use, and each CLI command loads only the modules it runs."""

import argparse
import importlib

import pytest

import incshap
from incshap.approx import Mode
from incshap.cli import _build_parser, run_command
from incshap.measures import MeasureKind
from incshap.oracle import OracleLimits

from conftest import DATA_DIR, fresh_python

TRAINS = str(DATA_DIR / "trains" / "manifest.json")

# The package's public names by defining submodule, as the package has
# always exported them.
EXPORTS = {
    "approx": "ApproxParams Estimate Guarantee Mode estimate_all estimate_shapley sample_count",
    "block_tree": "BlockTree build_tree",
    "errors": "BudgetExceededError IncshapError InputError IntractableExactError "
    "OracleLimitError ParseError SchemaError UnsupportedModeError",
    "exact": "Game SizeIndexedTable drastic_tables mc_tables measure multi_relation_combine "
    "r_tables shapley_all shapley_drastic shapley_exact shapley_mi",
    "fd_analysis": "TractabilityClass TractabilityKind attribute_closure classify "
    "classify_relation lhs_chain_order minimal_cover simplify_step",
    "io": "Manifest database_to_csv load_database load_fds load_instance load_manifest "
    "parse_fd_file",
    "measures": "CoalitionEvaluator MeasureKind RepairEnumeration enumerate_repairs",
    "oracle": "OracleLimits shapley_bruteforce_all shapley_bruteforce_subsets",
    "relational": "FD ConflictGraph Database Fact FDSet Schema build_conflict_graph "
    "is_consistent violates",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def test_every_public_name_is_the_submodules_own():
    assert len(NAMES) == 59
    assert sorted(incshap.__all__) == sorted(name for _, name in NAMES)
    listed = dir(incshap)
    for module, name in NAMES:
        value = getattr(incshap, name)
        assert value is getattr(importlib.import_module(f"incshap.{module}"), name), name
        assert name in listed
    assert "__version__" in vars(incshap)


def test_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'incshap' has no attribute 'nope'$"):
        incshap.nope
    with pytest.raises(ImportError):
        from incshap import nope  # noqa: F401


def _subparsers():
    parser = _build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _choices(parser, option):
    return next(a for a in parser._actions if option in a.option_strings).choices


def test_parser_literals_are_the_engines_values():
    """The parser spells out what the engines define, so that building it
    imports no engine."""
    sub = _subparsers()
    for command in ("measure", "shapley", "rank", "oracle"):
        assert _choices(sub[command], "--measure") == [k.value for k in MeasureKind]
    limits = vars(OracleLimits())
    for command in ("shapley", "rank", "oracle"):
        assert {key: sub[command].get_default(key) for key in limits} == limits
    for command in ("shapley", "rank"):
        assert _choices(sub[command], "--mode") == [m.value for m in Mode]
        assert sub[command].get_default("mode") == Mode.ADDITIVE.value


def test_invalid_measure_message_lists_the_measure_kinds(capsys):
    reference = argparse.ArgumentParser(exit_on_error=False)
    reference.add_argument("--measure", choices=[k.value for k in MeasureKind])
    with pytest.raises(argparse.ArgumentError) as expected:
        reference.parse_args(["--measure", "x"])
    assert "invalid choice" in str(expected.value)
    code = run_command(["--manifest", TRAINS, "shapley", "--measure", "x", "--all"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {expected.value}\n"


# Prints the exit code and the loaded incshap modules, names after "incshap.".
_LOADED = (
    "import io, sys\n"
    "from incshap.cli import run_command\n"
    "code = run_command(sys.argv[1:], stdout=io.StringIO())\n"
    "print(code, *sorted(m[8:] for m in sys.modules if m.split('.')[0] == 'incshap'))\n"
)
_CLASSIFY = {"", "cli", "errors", "relational", "fd_analysis", "io"}
_ENGINES = {"exact", "measures", "approx", "oracle", "report", "block_tree"}


def loaded(argv) -> set[str]:
    """The incshap modules a fresh process has loaded after running
    ``incshap --manifest Trains argv``; "" is the package itself."""
    code, out, err = fresh_python(["-c", _LOADED, "--manifest", TRAINS, *argv])
    assert code == 0 and err == "", err
    exit_code, *modules = out.split(" ")
    assert exit_code == "0"
    return {m.strip() for m in modules} | {""}


def test_import_incshap_loads_no_submodule():
    program = "import sys, incshap; print([m for m in sys.modules if m.split('.')[0] == 'incshap'])"
    assert fresh_python(["-c", program]) == (0, "['incshap']\n", "")


def test_classify_loads_no_engine():
    assert loaded(["classify"]) == _CLASSIFY
    assert loaded(["classify", "--dump-tree"]) == _CLASSIFY | {"block_tree"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        ("measure --measure mc", {"approx", "oracle", "report"}),
        ("shapley --measure r --all --method exact", {"approx", "oracle"}),
        ("rank --measure mc --top 3", {"approx", "oracle"}),
        ("shapley --measure r --all --method approx", {"oracle"}),
        ("shapley --measure r --all --method oracle", {"approx"}),
        ("oracle --measure mc --all", {"approx"}),
    ],
)
def test_engine_commands_load_only_their_method(argv, absent):
    modules = loaded(argv.split())
    assert _CLASSIFY <= modules <= _CLASSIFY | _ENGINES
    assert not modules & absent, modules & absent
