"""End-to-end command-line behavior."""

import io
import json
import sys
from pathlib import Path

import pytest

import incshap.exact
import incshap.relational
import instances
from incshap.cli import run_command
from incshap.measures import CoalitionEvaluator

from conftest import DATA_DIR, fresh_cli
from test_pins import check, pinned

TRAINS = str(DATA_DIR / "trains" / "manifest.json")


def run(argv, env=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if env and monkeypatch is not None:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_matching_manifest(tmp_path: Path) -> str:
    (tmp_path / "r.csv").write_text("A,B\na,1\na,2\nb,2\n")
    (tmp_path / "deps.fds").write_text("R: A -> B\nR: B -> A\n")
    manifest = {"schema": {"R": ["A", "B"]}, "data": {"R": "r.csv"}, "fds": "deps.fds"}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return str(path)


def assert_pinned(manifest_of, instance: str, argv: str):
    """The in-process CLI prints what the pin table pins for a fresh process."""
    code, out, _ = run(["--manifest", manifest_of(instance), *argv.split()])
    check(pinned(instance, argv), code, out)


def test_classify(tmp_path):
    code, out, _ = run(["--manifest", TRAINS, "classify"])
    assert code == 0
    assert out.strip() == "Trains: LhsChain"
    code, out, _ = run(["--manifest", write_matching_manifest(tmp_path), "classify"])
    assert code == 0
    assert out.strip() == "R: PTimeCRepairNoChain"


def test_python_dash_m_runs_the_cli():
    code, out, err = fresh_cli(["--manifest", TRAINS, "classify"])
    assert code == 0, err
    assert "Trains: LhsChain" in out


def test_classify_dump_tree():
    code, out, _ = run(["--manifest", TRAINS, "classify", "--dump-tree"])
    assert code == 0
    assert "root[L0]" in out and "subblock" in out


def test_measure():
    code, out, _ = run(["--manifest", TRAINS, "measure", "--measure", "p"])
    assert code == 0 and out.strip() == "9"
    code, out, _ = run(["--manifest", TRAINS, "measure", "--measure", "mc"])
    assert code == 0 and out.strip() == "5"


def test_counts_print_past_the_int_string_limit(tmp_path):
    """3^1350 repairs (645 digits) under a 640-digit int-to-string limit:
    both the measure and a sampled report print the count in full."""
    manifest = instances.write_manifest(tmp_path, instances.groups(1350))
    count = 3**1350
    expected = str(count)
    has_limit = hasattr(sys, "set_int_max_str_digits")
    if has_limit:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
    try:
        measured = run(["--manifest", str(manifest), "measure", "--measure", "mc"])
        sampled = run(["--manifest", str(manifest), "shapley", "--measure", "mc", "--all",
                       "--method", "approx", "--samples", "1"])
    finally:
        if has_limit:
            sys.set_int_max_str_digits(limit)
    assert measured == (0, expected + "\n", "")
    assert sampled[0] == 0
    assert json.loads(sampled[1])["total_measure"] == count


def test_shapley_report_all():
    code, out, _ = run(
        ["--manifest", TRAINS, "shapley", "--measure", "p", "--all"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["measure"] == "p"
    assert report["method"] == "exact"
    assert report["total_measure"] == 9
    assert report["efficiency_check"] is True
    assert len(report["facts"]) == 9
    assert report["facts"][0]["fact"] == "Trains:0"
    # exact rationals serialize as digit strings
    assert all(entry["numerator"].isdigit() for entry in report["facts"])


def test_shapley_single_fact():
    code, out, _ = run(
        ["--manifest", TRAINS, "shapley", "--measure", "mi", "--fact", "Trains:0"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["efficiency_check"] is None
    (entry,) = report["facts"]
    assert (entry["numerator"], entry["denominator"]) == ("7", "2")


def test_report_bytes_are_stable():
    args = ["--manifest", TRAINS, "shapley", "--measure", "d", "--all",
            "--method", "approx", "--eps", "0.3", "--delta", "0.3", "--seed", "11"]
    _, out1, _ = run(args)
    _, out2, _ = run(args)
    assert out1 == out2
    report = json.loads(out1)
    assert report["approx"]["seed"] == 11
    assert report["facts"][0]["guarantee"] == "additive"
    exact_args = ["--manifest", TRAINS, "shapley", "--measure", "r", "--all"]
    _, exact1, _ = run(exact_args)
    _, exact2, _ = run(exact_args)
    assert exact1 == exact2


def test_shapley_method_oracle_matches_exact():
    _, exact_out, _ = run(["--manifest", TRAINS, "shapley", "--measure", "mc", "--all"])
    code, oracle_out, _ = run(
        ["--manifest", TRAINS, "shapley", "--measure", "mc", "--all",
         "--method", "oracle"]
    )
    assert code == 0
    exact_report = json.loads(exact_out)
    oracle_report = json.loads(oracle_out)
    assert oracle_report["method"] == "oracle"
    assert oracle_report["efficiency_check"] is True
    assert exact_report["facts"] == oracle_report["facts"]


def test_rank_method_oracle_matches_exact():
    argv = ["--manifest", TRAINS, "rank", "--measure", "mc", "--top", "3"]
    code, exact_out, _ = run(argv)
    assert code == 0 and len(exact_out.splitlines()) == 3
    assert run(argv + ["--method", "oracle"])[:2] == (0, exact_out)


def test_oracle_forms_and_limits(tmp_path):
    """The oracle subcommand honours --form and its size limits."""
    manifest = write_matching_manifest(tmp_path)
    for m in ("d", "mi", "p", "r", "mc"):
        argv = ["--manifest", manifest, "oracle", "--measure", m, "--all"]
        code, subsets_out, _ = run(argv)
        assert code == 0
        assert run(argv + ["--form", "perms", "--max-facts-perms", "3"])[:2] == (0, subsets_out)
        code, out, _ = run(argv + ["--form", "perms", "--max-facts-perms", "2"])
        assert code == 2 and json.loads(out)["error"] == "size_limit"


def test_seed_env_fallback(monkeypatch):
    args = ["--manifest", TRAINS, "shapley", "--measure", "d", "--all",
            "--method", "approx", "--eps", "0.3", "--delta", "0.3"]
    monkeypatch.setenv("INCSHAP_SEED", "11")
    _, with_env, _ = run(args)
    monkeypatch.delenv("INCSHAP_SEED")
    _, explicit, _ = run(args + ["--seed", "11"])
    assert json.loads(with_env) == json.loads(explicit)
    monkeypatch.setenv("INCSHAP_SEED", "abc")
    assert run(args) == (1, "", "error: INCSHAP_SEED must be an integer, got 'abc'\n")


def test_oracle_subcommand():
    argv = ["--manifest", TRAINS, "oracle", "--measure", "mc", "--fact", "Trains:8"]
    code, out, _ = run(argv + ["--form", "perms", "--max-facts-perms", "9"])
    assert code == 0
    entry = json.loads(out)["facts"][0]
    assert entry["fact"] == "Trains:8"
    assert run(argv + ["--form", "subsets"])[:2] == (0, out)


def test_rank_order_and_ties():
    code, out, _ = run(["--manifest", TRAINS, "rank", "--measure", "mi", "--top", "4"])
    assert code == 0
    lines = [line.split("\t") for line in out.strip().splitlines()]
    assert len(lines) == 4
    values = [float(v) for _, v in lines]
    assert values == sorted(values, reverse=True)
    # f9 conflicts with everything: degree 8, attribution 4; unique maximum
    assert lines[0][0] == "Trains:8"
    # four facts tie at 7/2 (degree 7); ties break by ascending fact id
    assert [fid for fid, _ in lines[1:]] == ["Trains:0", "Trains:1", "Trains:5"]


def test_intractable_exact_exits_2(tmp_path):
    manifest = write_matching_manifest(tmp_path)
    for kind in ("d", "mc"):
        code, out, err = run(
            ["--manifest", manifest, "shapley", "--measure", kind, "--all"]
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "intractable_exact"
        assert "--method approx" in payload["suggestion"]
        assert "--method oracle" in payload["suggestion"]
        assert "refused" in err


def test_oracle_size_limit_exits_2():
    code, out, _ = run(
        ["--manifest", TRAINS, "oracle", "--measure", "mi", "--all",
         "--max-facts-subsets", "4"]
    )
    assert code == 2
    assert json.loads(out)["error"] == "size_limit"


# Refusal stdout, recorded from the CLI that laid the payload out with its
# own json.dumps call.
GOLDEN_REFUSALS = {
    "intractable_exact": (
        "{\n"
        '  "error": "intractable_exact",\n'
        '  "message": "relation \'R\' has no lhs chain up to equivalence (PTimeCRepairNoChain); '
        "exact computation refused: use --method approx for a sampled estimate or --method "
        'oracle on small inputs",\n'
        '  "suggestion": "use --method approx for a sampled estimate or --method oracle on '
        'small inputs"\n'
        "}\n"
    ),
    "size_limit": (
        "{\n"
        '  "error": "size_limit",\n'
        '  "message": "database has 9 facts, above the subset-enumeration limit of 4"\n'
        "}\n"
    ),
}


def test_golden_refusals(tmp_path):
    manifest = write_matching_manifest(tmp_path)
    code, out, _ = run(["--manifest", manifest, "shapley", "--measure", "d", "--all"])
    assert (code, out) == (2, GOLDEN_REFUSALS["intractable_exact"])
    code, out, _ = run(
        ["--manifest", TRAINS, "oracle", "--measure", "mi", "--all", "--max-facts-subsets", "4"]
    )
    assert (code, out) == (2, GOLDEN_REFUSALS["size_limit"])


def test_unsupported_mode_exits_2():
    code, out, _ = run(
        ["--manifest", TRAINS, "shapley", "--measure", "mi", "--all",
         "--method", "approx", "--mode", "multiplicative"]
    )
    assert code == 2
    assert json.loads(out)["error"] == "unsupported_mode"


def test_input_errors_exit_1(tmp_path):
    code, _, err = run(["--manifest", str(tmp_path / "nope.json"), "classify"])
    assert code == 1 and "error" in err
    code, _, err = run(
        ["--manifest", TRAINS, "shapley", "--measure", "p", "--fact", "Trains:99"]
    )
    assert code == 1
    code, _, err = run(["--manifest", TRAINS, "shapley", "--measure", "zz", "--all"])
    assert code == 1
    (tmp_path / "bad.fds").write_text("R: A ->\n")
    (tmp_path / "r.csv").write_text("A,B\n")
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"schema": {"R": ["A", "B"]}, "data": {"R": "r.csv"},
                               "fds": "bad.fds"}))
    code, _, err = run(["--manifest", str(bad), "classify"])
    assert code == 1 and "line 1" in err


def test_unreadable_and_undecodable_files_exit_1(tmp_path):
    """A directory where a file should be, or a CSV that is not UTF-8, exits 1
    with the file named on stderr, not with a traceback."""
    (tmp_path / "deps.fds").write_text("R: A -> B\n")
    (tmp_path / "r.csv").write_text("A,B\na,1\n")
    (tmp_path / "latin1.csv").write_bytes(b"A,B\ncaf\xe9,1\n")
    (tmp_path / "dir").mkdir()
    manifest = tmp_path / "m.json"
    for data, fds, bad in (
        ("latin1.csv", "deps.fds", "latin1.csv"),
        ("dir", "deps.fds", "dir"),
        ("r.csv", "dir", "dir"),
    ):
        schema = {"R": ["A", "B"]}
        manifest.write_text(json.dumps({"schema": schema, "data": {"R": data}, "fds": fds}))
        code, out, err = run(["--manifest", str(manifest), "classify"])
        assert (code, out) == (1, ""), err
        assert err.startswith(f"error: {tmp_path / bad}: "), err
    code, out, err = run(["--manifest", str(tmp_path / "latin1.csv"), "classify"])
    assert code == 1 and out == ""
    reason = "the manifest is not UTF-8: invalid continuation byte at byte 7"
    assert err == f"error: {tmp_path / 'latin1.csv'}: {reason}\n"
    code, out, err = run(["--manifest", str(tmp_path / "dir"), "classify"])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {tmp_path / 'dir'}: cannot read the manifest: ")


def test_fd_file_errors_name_the_file(tmp_path, monkeypatch):
    """A bad FD line is named by file and line on stderr, as a bad CSV record is."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.fds").write_text("R A -> B\n")
    (tmp_path / "r.csv").write_text("A,B\n")
    manifest = {"schema": {"R": ["A", "B"]}, "data": {"R": "r.csv"}, "fds": "r.fds"}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert run(["--manifest", "m.json", "classify"]) == (
        1, "", "error: r.fds: line 1: expected 'Relation: lhs -> rhs'\n"
    )


def test_rank_top_must_be_positive():
    for top in ("0", "-1"):
        code, out, err = run(["--manifest", TRAINS, "rank", "--measure", "mi", "--top", top])
        assert code == 1 and out == ""
        assert "--top must be at least 1" in err


def test_negative_budget_exits_1():
    code, out, err = run(
        ["--manifest", TRAINS, "shapley", "--measure", "mc", "--all", "--budget", "-5"]
    )
    assert code == 1 and out == ""
    assert "non-negative" in err
    code, _, err = run(["--manifest", TRAINS, "measure", "--measure", "r", "--budget", "-1"])
    assert code == 1 and "non-negative" in err


def test_malformed_manifest_exits_1(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"schema": ["R"], "data": {}, "fds": "deps.fds"}))
    code, out, err = run(["--manifest", str(bad), "classify"])
    assert code == 1 and out == ""
    assert "'schema' must be an object" in err


def test_approx_budget_refusal_exits_2():
    code, out, err = run(
        ["--manifest", TRAINS, "shapley", "--measure", "r", "--all",
         "--method", "approx", "--budget", "1"]
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "budget_exceeded"
    assert "coalition of size" in payload["message"]
    assert "refused" in err


def test_sampler_and_total_share_one_evaluator(manifest_of):
    """The total hits the memos of the finished walk, so a budget that every
    sampled step fits also fits the total; a refusal of the total names it."""
    manifest = manifest_of("clustered120")
    for budget in ("10", "20"):
        code, out, _ = run(["--manifest", manifest, "shapley", "--measure", "r", "--all",
                            "--method", "approx", "--budget", budget])
        assert code == 0
        report = json.loads(out)
        assert len(report["facts"]) == 120 and report["total_measure"]
    code, out, _ = run(["--manifest", manifest, "measure", "--measure", "r", "--budget", "10"])
    assert code == 2
    assert json.loads(out)["message"].startswith("whole-database measure of relation 'R': ")


@pytest.mark.parametrize(
    ("m", "least", "search"), [("r", 9, "vertex-cover search"), ("mc", 16, "repair enumeration")]
)
def test_least_walk_budget_and_its_refusal(manifest_of, m, least, search):
    """The sampled walk of every clustered fact finishes from its least
    budget up; one node less refuses, naming the coalition it was adding to."""
    manifest = manifest_of("clustered120")
    argv = ["--manifest", manifest, "shapley", "--measure", m, "--all", "--method", "approx"]
    code, out, _ = run(argv + ["--budget", str(least)])
    assert code == 0 and len(json.loads(out)["facts"]) == 120
    code, out, _ = run(argv + ["--budget", str(least - 1)])
    assert code == 2
    assert json.loads(out)["message"] == (
        "measure evaluation aborted on a sampled coalition of size 111: "
        f"{search} exceeded the node budget of {least - 1}"
    )


def test_one_pass_per_command(tmp_path, monkeypatch):
    """Values and total share one game: a `shapley --all` command builds at
    most one tree per relation holding facts and at most one evaluator, and
    a `d` total builds neither."""
    trees, evaluators = [], []
    build_tree, init = incshap.exact.build_tree, CoalitionEvaluator.__init__

    def counting_build_tree(facts, *args):
        trees.append(facts[0].relation)
        return build_tree(facts, *args)

    def counting_init(self, *args, **kwargs):
        evaluators.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(incshap.exact, "build_tree", counting_build_tree)
    monkeypatch.setattr(CoalitionEvaluator, "__init__", counting_init)
    matching = write_matching_manifest(tmp_path)
    for manifest, m, method in (
        (TRAINS, "d", "exact"), (TRAINS, "mc", "exact"), (TRAINS, "r", "exact"),
        (TRAINS, "r", "approx"), (matching, "r", "approx"),
    ):
        trees.clear()
        evaluators.clear()
        code, _, _ = run(["--manifest", manifest, "shapley", "--measure", m, "--all",
                          "--method", method])
        assert code == 0
        assert len(trees) == len(set(trees)) and len(evaluators) <= 1, (manifest, m, method)
    # A d total builds no tree and no evaluator: a sampled d command builds
    # only the sampler's evaluator, and `measure` builds neither.
    for manifest in (TRAINS, matching):
        for argv, built in (
            (["shapley", "--measure", "d", "--all", "--method", "approx"], 1),
            (["measure", "--measure", "d"], 0),
        ):
            trees.clear()
            evaluators.clear()
            code, _, _ = run(["--manifest", manifest, *argv])
            assert code == 0
            assert not trees and len(evaluators) == built, (manifest, argv)


def test_mi_p_build_no_conflict_graph(monkeypatch, manifest_of):
    """No command builds a conflict graph: exact mi/p values, rankings and
    totals, the sampler and the oracle all read conflicts from group counts
    and keep their values."""
    calls = []
    build = incshap.relational.build_conflict_graph

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("incshap") and hasattr(module, "build_conflict_graph"):
            monkeypatch.setattr(module, "build_conflict_graph", counting_build)
    for m in ("mi", "p"):
        for command in (
            ["shapley", "--measure", m, "--all"],
            ["rank", "--measure", m, "--top", "3"],
            ["measure", "--measure", m],
        ):
            code, _, _ = run(["--manifest", TRAINS, *command])
            assert code == 0 and not calls, command
        _, exact, _ = run(["--manifest", TRAINS, "shapley", "--measure", m, "--all"])
        _, oracle, _ = run(["--manifest", TRAINS, "oracle", "--measure", m, "--all"])
        assert json.loads(oracle)["facts"] == json.loads(exact)["facts"]
        assert_pinned(manifest_of, "trains", f"shapley --measure {m} --all --method approx --seed 7")
        assert not calls, m


def test_budget_leaves_chain_measures_alone():
    """Trains has an lhs chain: its exact numbers run no search, so a budget never refuses."""
    for m, expected in (("r", "6\n"), ("mc", "5\n")):
        code, out, _ = run(["--manifest", TRAINS, "measure", "--measure", m, "--budget", "1"])
        assert code == 0 and out == expected
    argv = ["--manifest", TRAINS, "shapley", "--measure", "r", "--all"]
    code, out, _ = run(argv + ["--budget", "1"])
    assert code == 0
    assert out == run(argv)[1]


# The in-process CLI prints the stdout of the pin table's fresh processes.
@pytest.mark.parametrize("m", ["d", "mc", "mi", "p", "r"])
def test_golden_approx_reports(manifest_of, m):
    assert_pinned(manifest_of, "trains", f"shapley --measure {m} --all --method approx --seed 7")


@pytest.mark.parametrize("m", ["d", "mc", "r"])
def test_golden_clustered_approx_reports(manifest_of, m):
    assert_pinned(manifest_of, "clustered120", f"shapley --measure {m} --all --method approx")


@pytest.mark.parametrize("m", ["d", "mc", "mi", "p", "r"])
def test_golden_exact_reports(manifest_of, m):
    assert_pinned(manifest_of, "trains", f"shapley --measure {m} --all")


@pytest.mark.parametrize("m", ["d", "mc"])
def test_golden_ladder_reports(manifest_of, m):
    assert_pinned(manifest_of, "ladder400", f"shapley --measure {m} --all")


def test_budget_checked_by_the_parser():
    """Every subcommand with --budget rejects a negative or non-integer one."""
    for argv in (
        ["shapley", "--measure", "r", "--all", "--budget", "-1"],
        ["shapley", "--measure", "d", "--fact", "Trains:0", "--budget", "-3"],
        ["rank", "--measure", "mc", "--top", "2", "--budget", "-1"],
        ["measure", "--measure", "mi", "--budget", "-2"],
    ):
        code, out, err = run(["--manifest", TRAINS] + argv)
        assert code == 1 and out == ""
        assert "non-negative" in err
    code, out, err = run(["--manifest", TRAINS, "measure", "--measure", "r", "--budget", "x"])
    assert code == 1 and out == "" and "--budget must be an integer" in err


def test_a_refused_parse_leaves_the_parser_as_built():
    """The parser is built once per process: after a refused parse, a valid
    command prints what it prints in a fresh process."""
    argv = ["--manifest", TRAINS, "shapley", "--measure", "r", "--all",
            "--method", "approx", "--seed", "3"]
    code, out, err = run(argv + ["--budget", "-1"])
    assert code == 1 and out == "" and "non-negative" in err
    code, out, _ = run(argv)
    assert code == 0
    code, fresh, err = fresh_cli(argv)
    assert code == 0, err
    assert out == fresh


def test_measure_on_a_large_chain_component(manifest_of):
    """120 facts in one conflict component: the repair count is read off the tables."""
    code, out, _ = run(["--manifest", manifest_of("block120"), "measure", "--measure", "mc"])
    assert code == 0 and out == "2147483648\n"
