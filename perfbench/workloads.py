"""The benchmark's four workloads and the maxleaf modules they drive.

A workload builds its inputs from the workload seed in set-up, then serves
one input per operation (op).  ``op`` is the timed call into maxleaf;
``check`` runs outside the timed region and says whether that op's output
is correct.  Inputs are sized so that a 36-second run completes dozens of
ops on a 2-core machine, which the tail percentile needs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import sys
import time
from types import SimpleNamespace

SUBMODULES = ("graph", "generate", "solver", "certificate", "oracle", "tightness", "cli")


def load_maxleaf() -> SimpleNamespace:
    """Import maxleaf afresh (module code runs again) and return its submodules."""
    for name in [k for k in sys.modules if k == "maxleaf" or k.startswith("maxleaf.")]:
        del sys.modules[name]
    importlib.import_module("maxleaf")
    return SimpleNamespace(**{name: importlib.import_module(f"maxleaf.{name}")
                              for name in SUBMODULES})


def graph_footprint_bytes(g) -> int:
    """Adjacency list, its row tuples and the n vertex-id ints they share."""
    rows = sum(sys.getsizeof(row) for row in g.adjacency)
    return sys.getsizeof(g.adjacency) + rows + g.n * sys.getsizeof(1 << 20)


def _trace_fingerprint(t, trace) -> tuple:
    return t.parent, tuple((s.center, s.case_label, s.added) for s in trace.steps)


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class Workload:
    """Base class: set-up timing, and inputs that every op reuses."""

    name = ""
    identical_inputs = False    # True when every op gets the same input

    def setup(self, ml: SimpleNamespace, workdir) -> float:
        """Build this run's inputs; return the seconds spent in generate."""
        raise NotImplementedError

    def input(self, i: int):
        raise NotImplementedError

    def op(self, ml: SimpleNamespace, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def outcome(self, out):
        """Part of an op's result that must repeat exactly for a seed, or None."""
        return None

    def footprint_bytes(self) -> int:
        return 0


class CertifyFile(Workload):
    """`maxleaf certify PATH` in-process, stdout captured."""

    name = "certify_file"
    identical_inputs = True

    def __init__(self, seed: int, n: int = 16384, m: int = 65536):
        self.seed, self.n, self.m = seed, n, m
        self.stdout: str | None = None

    def setup(self, ml, workdir):
        t0 = time.perf_counter()
        g = ml.generate.generate(
            ml.generate.InstanceSpec("random_connected", (self.n, self.m), self.seed))
        t1 = time.perf_counter()
        self.path = workdir / f"{self.name}-{self.seed}.edgelist"
        text = ml.graph.serialize(g)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self._footprint = graph_footprint_bytes(g)
        return t1 - t0

    def input(self, i):
        return str(self.path)

    def op(self, ml, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ml.cli.main(["certify", inp])
        return code, buf.getvalue()

    def check(self, inp, out):
        code, text = out
        if self.stdout is None:
            self.stdout = text
        kv = _key_values(text)
        try:
            leaves, bound = int(kv["leaves"]), int(kv["upper_bound"])
            ok = (code == 0 and kv["lemmas"] == "pass"
                  and leaves <= bound <= 2 * leaves - 1
                  and int(kv["n"]) == self.n and int(kv["m"]) == self.m)
        except (KeyError, ValueError):
            return False
        return ok and text == self.stdout

    def footprint_bytes(self):
        return self._footprint


class SolveInMemory(Workload):
    """`solver.tree(g)` on an edge-bound and a step-bound graph; one op solves both."""

    name = "solve_inmem"
    identical_inputs = True

    def __init__(self, seed: int, dense=(16384, 65536), sparse=(32768, 36864)):
        self.seed, self.shapes = seed, (dense, sparse)
        self.reference: list[tuple | None] = [None, None]
        self.reference_ok = [False, False]

    def setup(self, ml, workdir):
        t0 = time.perf_counter()
        self.graphs = [ml.generate.generate(ml.generate.InstanceSpec(
            "random_connected", shape, self.seed + k)) for k, shape in enumerate(self.shapes)]
        self._footprint = sum(graph_footprint_bytes(g) for g in self.graphs)
        self._verify = ml.solver.verify_spanning_tree
        return time.perf_counter() - t0

    def input(self, i):
        return self.graphs

    def op(self, ml, inp):
        return [ml.solver.tree(g) for g in inp]

    def check(self, inp, out):
        ok = True
        for k, (g, (t, trace)) in enumerate(zip(inp, out)):
            fingerprint = _trace_fingerprint(t, trace)
            if self.reference[k] is None:
                self.reference[k] = fingerprint
                self.reference_ok[k] = bool(self._verify(g, t))
            ok = ok and self.reference_ok[k] and fingerprint == self.reference[k]
        return ok

    def footprint_bytes(self):
        return self._footprint


class OracleCampaign(Workload):
    """generate + `oracle.compare(g)` on one instance of the criterion-2 schedule.

    The schedule draws n uniformly from [3, 10] and m uniformly from
    [n-1, min(20, C(n, 2))].  Oracle cost spans three orders of magnitude
    across (n, m), so the draws are stratified: each deck of 8 * DECK_SLOTS
    instances holds every n equally often and spreads m evenly over its
    range with a random offset (systematic sampling, same distribution as
    the schedule), so a run's throughput does not hinge on how many of the
    rare, slowest (n, m) cells it happened to draw.
    """

    name = "oracle_campaign"
    DECK_SLOTS = 12

    def __init__(self, seed: int, n_range=(3, 10), m_cap: int = 20):
        self.rng = random.Random(seed)
        self.n_range, self.m_cap = n_range, m_cap
        self.specs: list[tuple[int, int, int]] = []

    def setup(self, ml, workdir):
        self.spec_type = ml.generate.InstanceSpec
        return 0.0

    def _deal_deck(self) -> None:
        rng, slots = self.rng, self.DECK_SLOTS
        lo_n, hi_n = self.n_range
        columns = []
        for n in range(lo_n, hi_n + 1):
            lo, hi = n - 1, min(self.m_cap, n * (n - 1) // 2)
            offset = rng.random()
            ms = [lo + int((k + offset) * (hi - lo + 1) / slots) for k in range(slots)]
            rng.shuffle(ms)
            columns.append([(n, m) for m in ms])
        for row in zip(*columns):
            self.specs.extend((n, m, rng.getrandbits(64)) for n, m in row)

    def input(self, i):
        while i >= len(self.specs):
            self._deal_deck()
        n, m, seed = self.specs[i]
        return self.spec_type("random_connected", (n, m), seed)

    def op(self, ml, inp):
        return ml.oracle.compare(ml.generate.generate(inp))

    def outcome(self, out):
        return [out.alg_leaves, out.opt_leaves]

    def check(self, inp, out):
        return (out.bound_ok and out.certificate_ok and out.lemmas is not None
                and out.lemmas.passed and not out.budget_exhausted)


class TightSearch(Workload):
    """`tightness.tight_search(n_max, trials, seed=s_i)`, s_i drawn from the workload seed."""

    name = "tight_search"

    def __init__(self, seed: int, n_max: int = 12, trials: int = 2000):
        self.rng = random.Random(seed)
        self.n_max, self.trials = n_max, trials
        self.seeds: list[int] = []

    def setup(self, ml, workdir):
        return 0.0

    def input(self, i):
        while i >= len(self.seeds):
            self.seeds.append(self.rng.getrandbits(64))
        return self.seeds[i]

    def op(self, ml, inp):
        return ml.tightness.tight_search(n_max=self.n_max, trials=self.trials, seed=inp)

    def check(self, inp, out):
        best = out.best
        return best.opt_leaves <= 2 * best.alg_leaves - 1 and out.trials == self.trials

    def outcome(self, out) -> list:
        """The search result in a form that must repeat exactly for a seed."""
        best = out.best
        return [best.alg_leaves, best.opt_leaves, best.graph.n, best.graph.edge_list()]


WORKLOADS = {cls.name: cls for cls in (CertifyFile, SolveInMemory, OracleCampaign, TightSearch)}
