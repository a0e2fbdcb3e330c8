"""Run one workload in this process and print its full record as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --workdir DIR

run.py starts one fresh worker process per workload, so ``ru_maxrss`` is the
workload's own.  Load is a closed loop with one client on one thread: each op
starts when the previous one has finished.  The garbage collector stays on.

--trace 0 measures the end-to-end metrics.  --trace 1 spends the first half
of the run untraced and the second half traced, replaying the same inputs,
and reports the per-layer metrics plus the tracing overhead (traced minus
untraced op_ms_p50 over the ops both halves ran).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from tracing import Tracer, self_times, write_spans  # noqa: E402
from workloads import WORKLOADS, load_maxleaf  # noqa: E402

# Set-up runs SETUP_REPS times and its median is reported.  In an untraced
# run the reps after the first are spread evenly over the timed loop: this
# machine's speed shifts over seconds, and reps taken back to back would all
# land in one speed state while the ops see a mix.
SETUP_REPS = 7
TAIL_BEYOND = 10

# (module, attribute, span): each function is wrapped in the namespace of the
# module that looks it up, so a span exists only where the call really happens.
WRAP_POINTS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse", "graph.parse"),
    ("cli", "is_connected", "graph.is_connected"),
    ("cli", "tree", "solver.tree"),
    ("cli", "certify", "certificate.certify"),
    ("certificate", "assign_ranks", "certificate.assign_ranks"),
    ("certificate", "build_forest", "certificate.build_forest"),
    ("certificate", "compute_certificate", "certificate.compute_certificate"),
    ("certificate", "check_lemmas", "certificate.check_lemmas"),
    ("solver", "tree", "solver.tree"),
    ("oracle", "compare", "oracle.compare"),
    ("oracle", "tree", "solver.tree"),
    ("oracle", "certify", "certificate.certify"),
    ("oracle", "max_leaf_exact", "oracle.max_leaf_exact"),
    ("oracle", "is_connected", "graph.is_connected"),
    ("tightness", "tight_search", "tightness.tight_search"),
    ("tightness", "tree", "solver.tree"),
    ("tightness", "certify", "certificate.certify"),
    ("tightness", "max_leaf_exact", "oracle.max_leaf_exact"),
    ("generate", "generate", "generate.generate"),
)

# Per-layer busy time per op (ms), by span.  Spans whose own code is only
# glue between their children report self time under the layer's name.
LAYER_MS = {
    "op": "op.self_ms",
    "cli.main": "cli.self_ms",
    "graph.parse": "graph.parse_ms",
    "graph.is_connected": "graph.is_connected_ms",
    "solver.tree": "solver.tree_ms",
    "certificate.certify": "certificate.certify_ms",
    "certificate.assign_ranks": "certificate.assign_ranks_ms",
    "certificate.build_forest": "certificate.build_forest_ms",
    "certificate.compute_certificate": "certificate.compute_certificate_ms",
    "certificate.check_lemmas": "certificate.check_lemmas_ms",
    "oracle.compare": "oracle.compare_ms",
    "oracle.max_leaf_exact": "oracle.max_leaf_exact_ms",
    "tightness.tight_search": "tightness.self_ms",
    "generate.generate": "generate.ms",
}


def _count_tree(c, args, result):
    g = args[0]
    _t, trace = result
    for step in trace.steps:
        c["steps_" + step.case_label] += 1
    c["touches"] += trace.touches
    c["n_plus_m"] += g.n + g.m


def _count_certify(c, args, result):
    cert, _report = result
    c["certificates"] += 1
    c["gap"] += cert.upper_bound - cert.leaf_count


def _count_oracle(c, args, result):
    c["trees_examined"] += result.trees_examined


def _count_tight(c, args, result):
    c["oracle_calls"] += result.oracle_calls
    c["trials"] += result.trials


COUNT_HOOKS = {
    "solver.tree": _count_tree,
    "certificate.certify": _count_certify,
    "oracle.max_leaf_exact": _count_oracle,
    "tightness.tight_search": _count_tight,
}


def tail(sorted_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile); with too few samples, the maximum at 100.
    """
    n = len(sorted_ms)
    if n <= TAIL_BEYOND:
        return sorted_ms[-1], 100.0
    idx = n - 1 - TAIL_BEYOND
    return sorted_ms[idx], 100.0 * (idx + 1) / n


def run_loop(wl, ml, seconds: float, tracer: Tracer | None = None, between_ops=None):
    """Closed loop from input 0 until `seconds` have passed.

    between_ops(elapsed_seconds), if given, runs after each op, untimed.

    Returns per-op wall seconds, per-op ok flags, per-op exact records
    ([counters, outcome]) and the first error messages.
    """
    durations: list[float] = []
    ok: list[bool] = []
    records: list[list] = []
    errors: list[str] = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        inp = wl.input(i)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(ml, inp)
            else:
                out = tracer.run_op(i, wl.op, ml, inp)
            err = None
        except Exception as exc:  # a failing op is counted, the run goes on
            out, err = None, f"op {i}: {type(exc).__name__}: {exc}"
        durations.append(time.perf_counter() - t0)
        if err is None:
            try:
                if not wl.check(inp, out):
                    err = f"op {i}: output check failed"
            except Exception as exc:
                err = f"op {i}: output check raised {type(exc).__name__}: {exc}"
        ok.append(err is None)
        if err is not None:
            errors.append(err)
        counters = tracer.take_counters() if tracer is not None else None
        records.append([counters, wl.outcome(out) if err is None else None])
        # Drop the result before the next op: holding it would double the live
        # objects that the next op's full collections must traverse.
        out = None
        i += 1
        if between_ops is not None:
            between_ops(time.perf_counter() - start)
        if time.perf_counter() >= deadline:
            return durations, ok, records, errors


def _same(a, b) -> bool:
    return a is None or b is None or a == b


def determinism_gate(records: list[list], path: Path, identical_inputs: bool) -> list[str]:
    """Exact counters and outcomes must repeat: across ops when every op has
    the same input, and op by op against earlier runs recorded at `path`."""
    problems = []
    records = json.loads(json.dumps(records))  # compare in the form stored on disk
    if identical_inputs:
        for i, rec in enumerate(records[1:], start=1):
            if not (_same(rec[0], records[0][0]) and _same(rec[1], records[0][1])):
                problems.append(f"op {i} counters differ from op 0 on identical input")
                break
    if all(c is None and o is None for c, o in records):
        return problems
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        for i, (old, new) in enumerate(zip(earlier, records)):
            if not (_same(old[0], new[0]) and _same(old[1], new[1])):
                problems.append(f"op {i} counters or outcome differ from an earlier run "
                                f"of the same code and seed: {old} != {new}")
                break
        merged = [[n0 if n0 is not None else o0, n1 if n1 is not None else o1]
                  for (o0, o1), (n0, n1) in zip(earlier, records)]
        records = merged + (earlier[len(records):] or records[len(earlier):])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return problems


def _read(path: str | Path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def last_level_cache() -> dict:
    best = {"level": 0, "size": "unknown"}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level = _read(index / "level")
        if level.isdigit() and int(level) > best["level"]:
            best = {"level": int(level), "size": _read(index / "size")}
    return best


def _cache_bytes(size: str) -> int | None:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if size[:-1].isdigit() and size[-1] in units:
        return int(size[:-1]) * units[size[-1]]
    return int(size) if size.isdigit() else None


def git_sha() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown"


def environment(seed: int, footprint: int) -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc = last_level_cache()
    llc_bytes = _cache_bytes(llc["size"])
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_sha": git_sha(),
        "workload_seed": seed,
        "llc_level": llc["level"],
        "llc_size": llc["size"],
        "graph_footprint_bytes": footprint,
        "footprint_to_llc": footprint / llc_bytes if llc_bytes else None,
    }


class Setup:
    """Import + input generation + file writing, repeated and timed."""

    def __init__(self, name: str, seed: int, workdir: Path, params: dict):
        self.args = name, seed, workdir, params
        self.totals: list[float] = []
        self.generate_s: list[float] = []
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def rep(self):
        """One set-up from a fresh import; returns the modules and the workload."""
        name, seed, workdir, params = self.args
        t0 = time.perf_counter()
        ml = load_maxleaf()
        wl = WORKLOADS[name](seed, **params)
        self.generate_s.append(wl.setup(ml, workdir))
        self.totals.append(time.perf_counter() - t0)
        loaded_from = Path(ml.cli.__file__).resolve()
        if SRC.resolve() not in loaded_from.parents:
            raise SystemExit(f"maxleaf was imported from {loaded_from}, not from {SRC}")
        return ml, wl

    def spread(self, seconds: float):
        """Callback for run_loop: one more rep each time another
        seconds / (SETUP_REPS - 1) of the loop have passed."""
        def between_ops(elapsed: float) -> None:
            while len(self.totals) < SETUP_REPS and \
                    elapsed >= seconds * len(self.totals) / (SETUP_REPS - 1):
                self.rep()
        return between_ops

    def finish(self) -> None:
        while len(self.totals) < SETUP_REPS:
            self.rep()


def ok_ms(durations: list[float], ok: list[bool]) -> list[float]:
    return [d * 1000.0 for d, good in zip(durations, ok) if good]


def end_to_end(op_ms: list[float], seconds_timed: float) -> tuple[dict, dict]:
    """Median, tail and throughput over the ops whose output checked out."""
    if not op_ms:
        return {}, {"tail_percentile": None, "samples": 0}
    ordered = sorted(op_ms)
    tail_ms, pct = tail(ordered)
    metrics = {
        "op_ms_p50": (statistics.median(ordered), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ops_per_s": (len(ordered) / seconds_timed, "1/s"),
    }
    return metrics, {"tail_percentile": pct, "samples": len(ordered)}


def per_layer(tracer: Tracer, records, ops: int, untraced_ms, traced_ms,
              generate_s) -> tuple[dict, dict, dict, dict]:
    """Per-layer metrics, span calls, each layer's share of the traced op time,
    and how much of the op time the layer spans account for."""
    busy, calls = self_times(tracer.spans)
    metrics = {metric: (1000.0 * busy.get(span, 0.0) / ops, "ms")
               for span, metric in LAYER_MS.items()}
    op_total = sum(busy.values())
    shares = {metric: busy.get(span, 0.0) / op_total for span, metric in LAYER_MS.items()}
    total = {}
    for counters, _outcome in records:
        for key, value in (counters or {}).items():
            total[key] = total.get(key, 0) + value
    get = total.get
    oracle_s = busy.get("oracle.max_leaf_exact", 0.0)
    metrics.update({
        "solver.steps_w2": (get("steps_W2", 0) / ops, "count"),
        "solver.steps_w1": (get("steps_W1", 0) / ops, "count"),
        "solver.steps_w0": (get("steps_W0", 0) / ops, "count"),
        "solver.touches_per_nm": (get("touches", 0) / get("n_plus_m", 1), "ratio"),
        "certificate.gap": (get("gap", 0) / max(get("certificates", 0), 1), "count"),
        "oracle.trees_examined": (get("trees_examined", 0) / ops, "count"),
        "oracle.trees_per_s": (get("trees_examined", 0) / oracle_s if oracle_s else 0.0, "1/s"),
        "tightness.oracle_calls": (get("oracle_calls", 0) / ops, "count"),
        "tightness.admit_ratio": (get("oracle_calls", 0) / get("trials", 1), "ratio"),
        "generate.setup_ms": (1000.0 * statistics.median(generate_s), "ms"),
    })
    k = min(len(untraced_ms), len(traced_ms))
    if k:
        traced_p50 = statistics.median(traced_ms[:k])
        metrics["trace.op_ms_p50"] = (traced_p50, "ms")
        metrics["trace.overhead_ms"] = (traced_p50 - statistics.median(untraced_ms[:k]), "ms")
    accounting = {
        "untraced_op_ms_mean": statistics.fmean(untraced_ms) if untraced_ms else None,
        "traced_op_ms_mean": 1000.0 * op_total / ops,
        "layers_ms": 1000.0 * (op_total - busy.get("op", 0.0)) / ops,
    }
    return metrics, calls, shares, accounting


def source_digest() -> str:
    """Hash of the maxleaf sources: exact counters are compared only between
    runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "maxleaf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure(name: str, seed: int, seconds: float, trace: int, workdir: Path,
            params: dict | None = None) -> dict:
    """Set up and run one workload; return the full record."""
    setup = Setup(name, seed, workdir, params or {})
    ml, wl = setup.rep()
    record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
              "setup_reps": SETUP_REPS, "env": environment(seed, wl.footprint_bytes())}

    if trace:
        setup.finish()
        durations, ok, _records, errors = run_loop(wl, ml, seconds / 2)
        untraced_ms = ok_ms(durations, ok)
        attempted = len(durations)
        tracer = Tracer()
        for module, attr, span in WRAP_POINTS:
            tracer.wrap(getattr(ml, module), attr, span, COUNT_HOOKS.get(span))
        try:
            durations, ok, records, traced_errors = run_loop(wl, ml, seconds / 2, tracer)
        finally:
            tracer.restore()
        errors += traced_errors
        attempted += len(durations)
        metrics, calls, shares, accounting = per_layer(tracer, records, len(durations), untraced_ms,
                                           ok_ms(durations, ok), setup.generate_s)
        spans_path = workdir / f"spans-{name}-{seed}.tsv"
        write_spans(spans_path, tracer.spans)
        record["span_calls_per_op"] = {k: c / len(durations) for k, c in sorted(calls.items())}
        record["spans_file"] = str(spans_path)
        record["shares"] = shares
        record["accounting"] = accounting
    else:
        durations, ok, records, errors = run_loop(wl, ml, seconds,
                                                  between_ops=setup.spread(seconds))
        setup.finish()
        attempted = len(durations)
        metrics, tail_info = end_to_end(ok_ms(durations, ok), sum(durations))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["setup_s"] = (statistics.median(setup.totals), "s")
        record.update(tail_info)
        record["op_ms"] = [round(d * 1000.0, 4) for d in durations]

    exact_path = workdir / f"exact-{name}-{seed}-{source_digest()}.json"
    problems = determinism_gate(records, exact_path, wl.identical_inputs)
    failed = len(errors)
    record["fail_rate"] = failed / attempted
    record["errors"] = errors[:5]
    record["determinism_problems"] = problems
    record["result"] = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": value, "unit": unit} for k, (value, unit) in metrics.items()},
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    record = measure(args.workload, args.seed, args.seconds, args.trace, args.workdir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
