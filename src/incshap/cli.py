"""Command-line interface.

Subcommands: classify, measure, shapley, rank, oracle.  Reports go to
standard output, diagnostics to standard error.  Exit codes: 0 on
success, 1 on input errors, 2 on refusals (intractable exact requests,
oracle size limits, exceeded budgets, unsupported modes), which are also
emitted as machine-readable JSON objects on standard output.

Each command imports only the modules it runs.  classify loads io,
relational and fd_analysis (block_tree too with --dump-tree); measure
adds exact, measures and block_tree; shapley and rank add report, and
approx or oracle only for that method; a refusal adds report.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import (
    BudgetExceededError,
    IncshapError,
    InputError,
    IntractableExactError,
    OracleLimitError,
    UnsupportedModeError,
)
from .fd_analysis import TractabilityKind, classify
from .io import load_instance, load_manifest

_REFUSALS = (
    IntractableExactError,
    OracleLimitError,
    BudgetExceededError,
    UnsupportedModeError,
)


# vars(OracleLimits()): the default size limits of the brute-force oracle.
_ORACLE_LIMITS = {"max_facts_subsets": 18, "max_facts_perms": 8}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _budget(text: str) -> int:
    """A node budget: a non-negative integer."""
    from .measures import check_budget

    try:
        value = int(text)
    except ValueError:
        raise InputError(f"--budget must be an integer, got {text!r}") from None
    check_budget(value)
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged.

    The measure and mode choices and the oracle limits are written out, so
    that building the parser loads no engine; they are the values of
    MeasureKind, of approx.Mode and of OracleLimits(), in that order."""
    # The help text leaves out the docstring's last paragraph, on imports.
    parser = _Parser(prog="incshap", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--manifest", required=True, help="instance manifest (JSON)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="per-relation tractability class")
    p_classify.add_argument(
        "--dump-tree",
        action="store_true",
        help="print the block/subblock tree of each chain relation",
    )

    def add_measure_arg(p, select_facts=False):
        p.add_argument(
            "--measure",
            required=True,
            choices=["d", "mi", "p", "r", "mc"],
            help="d=drastic, mi=violating pairs, p=problematic facts, "
            "r=repair cost, mc=repair count",
        )
        if select_facts:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--fact", help="fact id, e.g. Trains:0")
            group.add_argument("--all", action="store_true")

    p_measure = sub.add_parser("measure", help="exact measure of the database")
    add_measure_arg(p_measure)
    p_measure.add_argument("--budget", type=_budget, default=None)

    def add_shapley_args(p, select_facts=True):
        add_measure_arg(p, select_facts)
        p.add_argument(
            "--method", choices=["exact", "approx", "oracle"], default="exact"
        )
        p.add_argument("--eps", type=float, default=0.1)
        p.add_argument("--delta", type=float, default=0.05)
        p.add_argument(
            "--mode", choices=["additive", "multiplicative"], default="additive"
        )
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--budget", type=_budget, default=None)
        p.set_defaults(form="subsets", **_ORACLE_LIMITS)

    p_shapley = sub.add_parser("shapley", help="per-fact attribution report")
    add_shapley_args(p_shapley)

    p_rank = sub.add_parser("rank", help="facts ranked by attribution")
    add_shapley_args(p_rank, select_facts=False)
    p_rank.add_argument("--top", type=int, required=True)

    p_oracle = sub.add_parser("oracle", help="brute-force reference values")
    add_measure_arg(p_oracle, select_facts=True)
    p_oracle.add_argument("--form", choices=["subsets", "perms"], default="subsets")
    p_oracle.add_argument("--max-facts-subsets", type=int)
    p_oracle.add_argument("--max-facts-perms", type=int)
    p_oracle.set_defaults(method="oracle", **_ORACLE_LIMITS)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("INCSHAP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"INCSHAP_SEED must be an integer, got {env!r}")
    return 0


def _approx_params(args) -> ApproxParams | None:
    """The sampler's parameters; None unless the method is approx."""
    if args.method != "approx":
        return None
    from .approx import ApproxParams, Mode

    return ApproxParams(
        epsilon=args.eps,
        delta=args.delta,
        mode=Mode(args.mode),
        seed=_resolve_seed(args),
        samples_override=args.samples,
    )


def _compute_values(db, fds, facts, kind, args, params):
    """The command's game, (fact id, value) pairs, and estimates by fact id
    when sampling with ``params``.  The oracle runs unbudgeted."""
    from .exact import Game

    ids = [fact.id for fact in facts]
    game = Game(db, fds, kind, budget=None if args.method == "oracle" else args.budget)
    if args.method == "exact":
        return game, list(zip(ids, game.values(facts))), {}
    if args.method == "oracle":
        from .oracle import OracleLimits, shapley_bruteforce_all

        limits = OracleLimits(args.max_facts_subsets, args.max_facts_perms)
        values = shapley_bruteforce_all(db, fds, facts, kind, args.form, limits, game.evaluator)
        return game, list(zip(ids, values)), {}
    from .approx import estimate_all

    estimates = dict(zip(ids, estimate_all(db, fds, facts, kind, params, engine=game.evaluator)))
    return game, [(fact_id, est.value) for fact_id, est in estimates.items()], estimates


def _approx_meta(params, kind, n):
    from .approx import sample_count

    return {
        "epsilon": params.epsilon,
        "delta": params.delta,
        "mode": params.mode.value,
        "seed": params.seed,
        "samples": sample_count(params, n, kind),
    }


def _cmd_classify(args, out):
    db, fds = load_instance(load_manifest(args.manifest))
    classes = classify(fds)
    for relation in fds.schema.relation_names:
        cls = classes[relation]
        print(f"{relation}: {cls.kind.value}", file=out)
        if args.dump_tree and cls.kind is TractabilityKind.LHS_CHAIN:
            from .block_tree import build_tree

            tree = build_tree(db.facts_of(relation), cls.chain, db.schema)
            print(tree.dump(), file=out)
    return 0


def _cmd_measure(args, out):
    from .exact import measure
    from .measures import MeasureKind

    db, fds = load_instance(load_manifest(args.manifest))
    print(measure(MeasureKind(args.measure), db, fds, budget=args.budget), file=out)
    return 0


def _cmd_shapley(args, out):
    from .measures import MeasureKind
    from .report import build_report, render_report

    db, fds = load_instance(load_manifest(args.manifest))
    kind = MeasureKind(args.measure)
    facts = list(db.facts) if args.all else [db.get(args.fact)]
    params = _approx_params(args)
    game, values, estimates = _compute_values(db, fds, facts, kind, args, params)
    report = build_report(
        kind,
        args.method,
        values,
        total_measure=game.total(),
        complete=args.all,
        estimates=estimates or None,
        approx_meta=_approx_meta(params, kind, len(db)) if params is not None else None,
    )
    print(render_report(report), file=out)
    return 0


def _cmd_rank(args, out):
    if args.top < 1:
        raise InputError(f"--top must be at least 1, got {args.top}")
    from .measures import MeasureKind
    from .report import decimal_str

    db, fds = load_instance(load_manifest(args.manifest))
    kind = MeasureKind(args.measure)
    _, values, _ = _compute_values(db, fds, list(db.facts), kind, args, _approx_params(args))
    ranked = sorted(values, key=lambda item: (-item[1], item[0]))
    for fact_id, value in ranked[: args.top]:
        print(f"{fact_id}\t{decimal_str(value)}", file=out)
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "measure": _cmd_measure,
    "shapley": _cmd_shapley,
    "rank": _cmd_rank,
    "oracle": _cmd_shapley,
}


def run_command(argv, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if hasattr(sys, "set_int_max_str_digits"):  # counts print in full, past 4300 digits
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except _REFUSALS as exc:
        from .report import render_report

        payload = {"error": exc.kind, "message": str(exc)}
        if isinstance(exc, IntractableExactError):
            payload["suggestion"] = exc.suggestion
        print(render_report(payload), file=out)
        print(f"refused: {exc}", file=err)
        return 2
    except IncshapError as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
