"""Command-line front end.

Subcommands: solve, certify, oracle, compare, gen, bench, tight-search.
Every command reads exactly one input source, a file path ('-' for stdin)
or a generator spec via --gen, and writes diff-stable text to stdout.
Exit codes: 0 success, 1 usage/infeasible parameters, 2 parse error,
3 disconnected input, 4 certificate violation, 5 oracle budget exhausted,
6 the two exact oracles disagree.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from .certificate import CertificateError, certify
from .generate import PARAM_COUNTS, InstanceSpec, generate
# Nothing here calls is_connected; perfbench's worker wraps cli.is_connected
# by name, so the name must stay importable here.
from .graph import FORMATS, Graph, GraphFormatError, is_connected, parse, serialize, to_dot
from .oracle import DEFAULT_BUDGET, OracleDisagreementError, compare, max_leaf_exact
from .solver import DisconnectedGraphError, StartPolicy, leaf_count, tree
from .tightness import tight_search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_CERTIFICATE = 4
EXIT_BUDGET = 5
EXIT_ORACLE_DISAGREEMENT = 6


def parse_gen_spec(text: str, seed: int) -> InstanceSpec:
    """Parse generator specs like cycle:5, grid:3x3, random:50:100, tight:12:1000."""
    name, _, rest = text.partition(":")
    aliases = {"random": "random_connected", "tight": "tight_search"}
    family = aliases.get(name, name)
    if family not in PARAM_COUNTS:
        raise ValueError(f"unknown generator family {name!r}")
    if family == "grid":
        parts = rest.split("x")
    else:
        parts = rest.split(":") if rest else []
    try:
        params = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad generator parameters in {text!r}") from None
    expected = PARAM_COUNTS[family]
    if len(params) != expected:
        raise ValueError(
            f"{name} takes {expected} parameter(s), got {len(params)} in {text!r}")
    return InstanceSpec(family, params, seed)


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.gen is not None:
        if args.input is not None:
            raise ValueError("give either an input file or --gen, not both")
        return generate(parse_gen_spec(args.gen, args.seed))
    if args.input is None:
        raise ValueError("no input: give a file path ('-' for stdin) or --gen")
    # Both sources read UTF-8 with universal newlines, whatever the locale.
    # surrogateescape keeps an undecodable byte as a character that no
    # token accepts: ignored in a comment, a parse error at its line elsewhere.
    if args.input == "-":
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    return parse(text, args.format)


def _trace_lines(trace) -> list[str]:
    lines = []
    for i, step in enumerate(trace.steps, start=1):
        added = ",".join(map(str, step.added))
        lines.append(f"step={i} case={step.case_label} center={step.center} added={added}")
    return lines


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    t, trace = tree(g, args.policy)
    print(f"n={g.n}")
    print(f"m={g.m}")
    print(f"leaves={leaf_count(t)}")
    if args.trace:
        for line in _trace_lines(trace):
            print(line)
    if args.edges:
        for u, v in t.edges():
            print(f"{u} {v}")
    if args.dot:
        sys.stdout.write(to_dot(g, t.edges()))
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    t, trace = tree(g, args.policy)
    cert, _ = certify(g, t, trace)
    print(f"n={g.n}")
    print(f"m={g.m}")
    print(f"leaves={cert.leaf_count}")
    print(f"u_size={cert.u_size}")
    print(f"k={cert.k}")
    print(f"upper_bound={cert.upper_bound}")
    print(f"ratio_bound={cert.ratio_bound:.4f}")
    print("lemmas=pass")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    result = max_leaf_exact(g, budget=args.budget)
    print(f"opt={result.opt_leaves}")
    print(f"trees={result.trees_examined}")
    if args.edges:
        for u, v in result.witness.edges():
            print(f"{u} {v}")
    if result.budget_exhausted:
        print(f"tree budget {args.budget} exhausted; best found so far reported",
              file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    result = compare(g, args.policy, budget=args.budget)
    if result.budget_exhausted:
        print(f"tree budget {args.budget} exhausted", file=sys.stderr)
        return EXIT_BUDGET
    bound = "true" if result.bound_ok else "false"
    print(f"alg={result.alg_leaves} opt={result.opt_leaves} "
          f"ratio={result.ratio:.4f} bound_ok={bound}")
    if not result.certificate_ok:
        print(f"certificate violation: opt={result.opt_leaves} "
              f"upper_bound={result.certificate.upper_bound}", file=sys.stderr)
    return EXIT_OK if result.bound_ok and result.certificate_ok else EXIT_CERTIFICATE


def cmd_gen(args: argparse.Namespace) -> int:
    if args.gen is None:
        raise ValueError("gen requires --gen FAMILY:PARAMS")
    g = generate(parse_gen_spec(args.gen, args.seed))
    sys.stdout.write(serialize(g, args.format))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    lo, _, hi = args.ladder.partition(":")
    ladder = (int(lo), int(hi) if hi else int(lo))
    rows = bench_mod.run_ladder(ladder, runs=args.runs, seed=args.seed,
                                policy=args.policy)
    sys.stdout.write(bench_mod.rows_to_csv(rows))
    return EXIT_OK


def cmd_tight_search(args: argparse.Namespace) -> int:
    # Open --out before the search, so an unwritable path fails at once;
    # append mode keeps an earlier result if the search itself fails.
    with open(args.out, "a", encoding="utf-8") as fh:
        best = tight_search(args.n_max, args.trials, args.seed, args.policy).best
        text = serialize(best.graph, args.format)
        sys.stdout.write(text)
        print(f"alg={best.alg_leaves}")
        print(f"opt={best.opt_leaves}")
        print(f"ratio={best.ratio:.4f}")
        fh.truncate(0)
        fh.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxleaf",
        description="Maximum-leaf spanning trees: greedy solver, certificates, exact oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, file: bool = True, gen: bool = True,
                   fmt: bool = True, policy: bool = True) -> None:
        """Add the shared flags; each command turns off those it does not read."""
        if file:
            p.add_argument("input", nargs="?", default=None,
                           help="input file path, or '-' for stdin")
        if gen:
            p.add_argument("--gen", default=None, metavar="SPEC",
                           help="generate the input instead: cycle:N, star:N, "
                                "complete:N, grid:RxC, random:N:M, tight:NMAX:TRIALS")
        if fmt:
            p.add_argument("--format", choices=FORMATS, default="edgelist")
        if policy:
            p.add_argument("--start-policy", dest="policy", type=StartPolicy.parse,
                           default=StartPolicy.first_eligible(), metavar="POLICY",
                           help="first | maxdeg | vertex:<id> (default: first)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="build a spanning tree and report its leaf count")
    add_common(p)
    p.add_argument("--edges", action="store_true", help="print tree edges")
    p.add_argument("--dot", action="store_true", help="print DOT export")
    p.add_argument("--trace", action="store_true", help="print expansion steps")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="print the quality certificate and lemma checks")
    add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("oracle", help="exact maximum leaf count by enumeration")
    add_common(p, policy=False)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max spanning trees to enumerate")
    p.add_argument("--edges", action="store_true", help="print witness tree edges")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="algorithm vs exact optimum on one instance")
    add_common(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max trees the bound-pruned enumeration may visit")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="generate an instance and print it")
    add_common(p, file=False, policy=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="scaling benchmark along a doubling edge ladder")
    add_common(p, file=False, gen=False, fmt=False)
    p.add_argument("--ladder", default="16:21", metavar="LO:HI",
                   help="exponent range, m = 2^LO .. 2^HI (default 16:21)")
    p.add_argument("--runs", type=int, default=bench_mod.DEFAULT_RUNS)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("tight-search", help="search for instances with high opt/alg ratio")
    add_common(p, file=False, gen=False)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--out", default="tight-best.edgelist",
                   help="file to persist the best instance to")
    p.set_defaults(func=cmd_tight_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except CertificateError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except OracleDisagreementError as exc:
        print(f"oracle disagreement: {exc}", file=sys.stderr)
        return EXIT_ORACLE_DISAGREEMENT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
