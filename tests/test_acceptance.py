"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The full suite takes a few minutes; the scaling benchmark (criterion 5) and
the randomized campaigns dominate.

Criterion 1 sweeps every connected graph on 2..7 vertices up to isomorphism
(via the networkx graph atlas). Single-vertex graphs are excluded: with no
leaves on either side, the guarantee's right-hand side 2*alg - 1 is negative
and the degenerate case carries no information.
"""

from __future__ import annotations

import pytest

from maxleaf import (InstanceSpec, compare, generate, leaf_count,
                     max_leaf_exact, tight_search, tree)
from maxleaf.cli import main

from helpers import atlas_connected_graphs, campaign_schedule, unique_rank_vertices


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed: {detail}"


def test_criterion_1_exhaustive_small_instance_guarantee():
    graphs = atlas_connected_graphs()
    assert len(graphs) == 995   # connected graphs on 2..7 vertices, up to iso
    violations = []
    for g in graphs:
        r = compare(g)
        if not r.bound_ok:
            violations.append((g.edge_list(), "ratio"))
        if g.n >= 3 and r.opt_leaves > r.certificate.upper_bound:
            violations.append((g.edge_list(), "upper_bound"))
    report(1, "exhaustive-small-instance-guarantee", not violations,
           f"{len(graphs)} graphs, {len(violations)} violations")


CAMPAIGN_SIZE = 10_000


@pytest.fixture(scope="module")
def campaign_summary():
    # Aggregate on the fly so the big per-instance results are freed early
    # and nothing heavy is still alive when the benchmark criterion runs.
    instances = 0
    guarantee_violations = []
    lemma_failures = []
    for spec in campaign_schedule(CAMPAIGN_SIZE):
        g = generate(spec)
        r = compare(g)
        instances += 1
        if not r.bound_ok or r.opt_leaves > r.certificate.upper_bound:
            guarantee_violations.append(spec)
        if not r.lemmas.passed:
            lemma_failures.append(spec)
    return instances, guarantee_violations, lemma_failures


def test_criterion_2_randomized_guarantee_campaign(campaign_summary):
    instances, guarantee_violations, _ = campaign_summary
    ok = not guarantee_violations and instances == CAMPAIGN_SIZE
    report(2, "randomized-guarantee-campaign", ok,
           f"{instances} instances, {len(guarantee_violations)} violations")


def test_criterion_3_lemma_suite(campaign_summary):
    # compare runs the forest and lemma audit on certify's ranks, and the
    # forest invariants raise, so reaching a result means they held; lemma
    # reports must be clean too.
    instances, _, lemma_failures = campaign_summary
    lemma_failures = list(lemma_failures)

    family_specs = (
        [InstanceSpec("cycle", (k,)) for k in range(3, 31)]
        + [InstanceSpec("star", (k,)) for k in range(3, 21)]
        + [InstanceSpec("complete", (k,)) for k in range(3, 10)]
        + [InstanceSpec("grid", (r, c)) for r in range(1, 6) for c in range(2, 7)]
        + [InstanceSpec("random_connected", (n, 2 * n), s)
           for n in (8, 16, 32, 64) for s in range(5)]
    )
    from maxleaf import assign_ranks, build_forest, check_lemmas
    from collections import Counter

    for spec in family_specs:
        g = generate(spec)
        t, trace = tree(g)
        rank, _ = assign_ranks(g, trace)
        forest = build_forest(g, t, rank)   # raises on any forest invariant breach
        counts = Counter(rank)
        unique = {v for v, r in enumerate(rank) if counts[r] == 1}
        assert unique_rank_vertices(forest) == unique
        if not check_lemmas(g, rank, forest).passed:
            lemma_failures.append(spec)

    report(3, "lemma-suite", not lemma_failures,
           f"{instances} campaign + {len(family_specs)} family "
           f"instances, {len(lemma_failures)} lemma failures")


def test_criterion_4_tightness_reproduction():
    result = tight_search(n_max=12, trials=100_000, seed=7)
    found = result.tight is not None
    verified = False
    detail = "no tight instance found"
    if found:
        inst = result.tight
        g = inst.graph
        alg = leaf_count(tree(g)[0])
        opt = max_leaf_exact(g).opt_leaves
        verified = (alg, opt) == (inst.alg_leaves, inst.opt_leaves) \
            and opt >= 2 * alg - 2
        detail = (f"n={g.n} m={g.m} alg={alg} opt={opt} "
                  f"slack={opt - (2 * alg - 2)} best_ratio={result.best.ratio:.4f}")
    report(4, "tightness-reproduction", found and verified, detail)


def test_criterion_5_linear_time_behavior():
    # Measured in a fresh process: timings in a long-lived test process are
    # skewed by heap state left behind by the preceding campaigns. Fifteen
    # passes: the rung where the graph outgrows the cache reads about 2.8 on
    # a shared 2-vCPU host, and five passes scattered it past 3.
    import subprocess
    import sys

    driver = (
        "from maxleaf.bench import run_ladder\n"
        "for r in run_ladder((16, 21), runs=15, seed=0):\n"
        "    print(r.m, r.n, r.median_ms, "
        "'-' if r.ratio is None else r.ratio, r.touches, r.touch_limit)\n"
    )
    proc = subprocess.run([sys.executable, "-c", driver],
                          capture_output=True, text=True, check=True)
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert len(rows) == 6
    ratios = [float(r[3]) for r in rows if r[3] != "-"]
    median_ms = [float(r[2]) for r in rows]
    touch_frac = [int(r[4]) / int(r[5]) for r in rows]
    ratio_ok = all(r <= 3.0 for r in ratios)
    time_ok = median_ms[-1] < 5000.0
    touch_ok = all(int(r[4]) <= int(r[5]) for r in rows)
    detail = (f"ratios={[f'{r:.2f}' for r in ratios]}, "
              f"top median {median_ms[-1]:.0f}ms, "
              f"max touches/limit {max(touch_frac):.2f}")
    report(5, "linear-time-behavior", ratio_ok and time_ok and touch_ok, detail)


def test_criterion_6_oracle_tree_counts():
    expected = {3: 3, 4: 16, 5: 125}
    got = {n: max_leaf_exact(generate(InstanceSpec("complete", (n,)))).trees_examined
           for n in expected}
    report(6, "oracle-cayley-validation", got == expected, f"counts {got}")


def mask_timing(command: list[str], out: str) -> str:
    if command[0] != "bench":
        return out
    lines = out.splitlines()
    masked = [lines[0]]
    for line in lines[1:]:
        m, n, _ms, _ratio = line.split(",")
        masked.append(f"{m},{n},<t>,<r>")
    return "\n".join(masked)


def test_criterion_7_cli_determinism(tmp_path, capsys):
    star_file = tmp_path / "star.edgelist"
    star_file.write_text("6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    commands = [
        ["solve", str(star_file), "--edges", "--trace", "--dot"],
        ["solve", "--gen", "random:12:18", "--seed", "5", "--edges"],
        ["certify", "--gen", "cycle:9"],
        ["certify", "--gen", "random:10:14", "--seed", "3"],
        ["oracle", "--gen", "grid:3x3", "--edges"],
        ["compare", "--gen", "random:9:12", "--seed", "8"],
        ["gen", "--gen", "random:15:30", "--seed", "2", "--format", "dimacs"],
        ["bench", "--ladder", "8:9", "--runs", "2"],
        ["tight-search", "--n-max", "8", "--trials", "200", "--seed", "4",
         "--out", str(tmp_path / "tight.edgelist")],
    ]
    mismatches = []
    for command in commands:
        runs = []
        for _ in range(3):
            code = main(command)
            captured = capsys.readouterr()
            runs.append((code, mask_timing(command, captured.out)))
        if len(set(runs)) != 1:
            mismatches.append(command[0])
    report(7, "cli-determinism", not mismatches,
           f"{len(commands)} commands x3 runs, mismatches: {mismatches or 'none'}")
