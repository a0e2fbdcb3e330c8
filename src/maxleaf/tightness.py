"""Randomized search for instances where the greedy tree does badly.

Each trial draws a small random connected graph and solves it. Two sound
upper bounds on its optimum act as an admission filter: the exact oracle
runs only when both leave room to improve on the incumbents. The first is
the certificate's upper_bound, which comes with every trial; the second,
oracle.leaf_budget_bound (cut vertices and the non-tree edge budget), is
computed only for trials the first admits. The filter's tests are strict,
so a skipped trial could not have become a champion: the bounds decide how
many trials reach the oracle, never which instances win. Two champions are
tracked over the run:

* best  -- maximizes opt / alg, the observed approximation ratio;
* tight -- maximizes opt - (2 * alg - 2), i.e. the instance closest to
  (or beyond) the worst ratio the guarantee permits.

Admitted trials are solved exactly by oracle.max_leaf_cds (minimum connected
dominating set); oracle_calls counts those calls. Each new champion is
confirmed by the independent spanning-tree enumerator, oracle.max_leaf_exact,
under PER_TRIAL_TREE_BUDGET: a finished enumeration must give the same
optimum, an exhausted one a partial best no larger; anything else raises
OracleDisagreementError.

With MAX_EXTRA_EDGES = 5, an instance has m = n - 1 + k edges with k <= 5,
and each spanning tree omits exactly k of them, so there are at most
C(n+4, 5) spanning trees; for n <= 27 that is <= 169,911, below the 200,000
budget, and confirmations there always finish. Trials with larger n are
solved exactly too, however many spanning trees they have; the CDS search
grows exponentially in the number of non-cut vertices instead.

Every trial is certified: certify raises CertificateError when the run's
trace breaks an expansion rule or any other check of the certificate
fails. The forest and lemma audit, which those rules imply, is not run per
trial; compare and the tests run it.

Deterministic for a fixed (n_max, trials, seed): reruns return the same
instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .certificate import certify
from .generate import _draws, add_random_edges, graph_from_keys, uniform_random_tree
from .graph import Graph
from .oracle import (OracleDisagreementError, leaf_budget_bound, max_leaf_cds,
                     max_leaf_exact)
from .solver import StartPolicy, leaf_count, tree

PER_TRIAL_TREE_BUDGET = 200_000
MAX_EXTRA_EDGES = 5     # non-tree edges per instance, drawn from 0..MAX_EXTRA_EDGES


@dataclass(frozen=True)
class TightInstance:
    graph: Graph
    alg_leaves: int
    opt_leaves: int

    @property
    def ratio(self) -> float:
        return self.opt_leaves / self.alg_leaves

    @property
    def slack(self) -> int:
        """opt - (2*alg - 2); >= 0 means the run is as bad as analysis allows."""
        return self.opt_leaves - (2 * self.alg_leaves - 2)


@dataclass(frozen=True)
class TightSearchResult:
    best: TightInstance                 # argmax ratio among oracled trials
    tight: TightInstance | None        # argmax slack, if any reached slack >= 0
    trials: int
    oracle_calls: int    # trials solved exactly: those both bounds admitted


def _random_instance(rng: random.Random, n_max: int) -> Graph:
    # One draw of _draws(rng, k) is the value, and leaves the state, that
    # rng.randrange(k) would, so these are rng.randint(4, max(4, n_max))
    # and rng.randint(0, cap).
    n = 4 + next(_draws(rng, max(4, n_max) - 3))
    keys = set(uniform_random_tree(n, rng))
    cap = min(MAX_EXTRA_EDGES, n * (n - 1) // 2 - (n - 1))
    extra = next(_draws(rng, cap + 1)) if cap > 0 else 0
    add_random_edges(keys, n, extra, rng)
    return graph_from_keys(n, keys)


def _may_improve(bound: int, alg: int, best: TightInstance | None,
                 tight: TightInstance | None) -> bool:
    """Could a trial with opt <= bound beat either incumbent?"""
    return (best is None or bound * best.alg_leaves > best.opt_leaves * alg
            or bound - (2 * alg - 2) > (tight.slack if tight else -1))


def tight_search(n_max: int, trials: int, seed: int,
                 policy: StartPolicy | None = None) -> TightSearchResult:
    """Search `trials` random instances with at most n_max vertices."""
    if n_max < 4:
        raise ValueError(f"tight_search needs n_max >= 4, got {n_max}")
    if trials < 1:
        raise ValueError(f"tight_search needs trials >= 1, got {trials}")
    rng = random.Random(seed)
    best: TightInstance | None = None
    tight: TightInstance | None = None
    oracle_calls = 0

    for _ in range(trials):
        g = _random_instance(rng, n_max)
        t, trace = tree(g, policy)
        alg = leaf_count(t)
        cert, _ = certify(g, t, trace)
        # Admission filter: skip trials that cannot beat either incumbent
        # even if opt reached min(upper_bound, leaf_budget_bound), the
        # tighter bound. _may_improve grows with the bound, so testing both
        # is testing the minimum.
        if not (_may_improve(cert.upper_bound, alg, best, tight)
                and _may_improve(leaf_budget_bound(g), alg, best, tight)):
            continue
        oracle_calls += 1
        cand = TightInstance(g, alg, max_leaf_cds(g)[0])
        new_best = best is None or \
            cand.opt_leaves * best.alg_leaves > best.opt_leaves * cand.alg_leaves
        new_tight = cand.slack >= 0 and (tight is None or cand.slack > tight.slack)
        if new_best or new_tight:
            # Confirm each champion with the independent tree enumerator; an
            # exhausted budget leaves only a partial best, a lower bound.
            check = max_leaf_exact(g, budget=PER_TRIAL_TREE_BUDGET)
            if check.opt_leaves > cand.opt_leaves or (
                    not check.budget_exhausted and check.opt_leaves != cand.opt_leaves):
                raise OracleDisagreementError(
                    f"edges {g.edge_list()}: connected dominating sets give "
                    f"{cand.opt_leaves} leaves, tree enumeration "
                    f"{check.opt_leaves} (budget exhausted: {check.budget_exhausted})")
        if new_best:
            best = cand
        if new_tight:
            tight = cand

    return TightSearchResult(best, tight, trials, oracle_calls)
