"""End-to-end and per-layer benchmark of maxleaf.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in a fresh worker
process (worker.py) against the sources in ./src.  The report is printed as
readable lines, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  With --workload all, the
metric names are prefixed by the workload name.  Full records, span files
and the exact-counter history go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("certify_file", "solve_inmem", "oracle_campaign", "tight_search")
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(WORKDIR)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    out = WORKDIR / f"result-{workload}-{seed}-trace{trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def describe(record: dict) -> list[str]:
    result = record["result"]
    metrics = result["metrics"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
             f"ops {result['attempted']}  failed {result['failed']}  correct {result['correct']}"]
    for name, m in metrics.items():
        extra = ""
        if name == "op_ms_tail":
            extra = f"  (p{record['tail_percentile']:.1f} of {record['samples']} ops)"
        elif name == "setup_s":
            extra = f"  (median of {record['setup_reps']} set-ups)"
        elif name in record.get("shares", {}):
            extra = f"  share {100.0 * record['shares'][name]:5.1f}%"
        lines.append(f"  {name:34s} {_fmt(m['value']):>12s} {m['unit']}{extra}")
    if not record["trace"]:
        lines.append(f"  {'fail_rate':34s} {_fmt(record['fail_rate']):>12s} ratio")
    else:
        calls = ", ".join(f"{k} {_fmt(v)}" for k, v in record["span_calls_per_op"].items())
        lines.append(f"  calls per op: {calls}")
        acc = record["accounting"]
        lines.append(f"  layer self times add up to {_fmt(acc['layers_ms'])} ms of the "
                     f"{_fmt(acc['traced_op_ms_mean'])} ms traced op mean "
                     f"(untraced op mean {_fmt(acc['untraced_op_ms_mean'] or 0.0)} ms)")
        lines.append(f"  spans: {record['spans_file']}")
    env = record["env"]
    lines.append("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for problem in record["errors"] + record["determinism_problems"]:
        lines.append(f"  problem: {problem}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maxleaf" / "__init__.py").is_file():
        print(f"maxleaf sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_worker(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(record)), flush=True)
        records.append(record)

    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{name}": m for r in records
                        for name, m in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
