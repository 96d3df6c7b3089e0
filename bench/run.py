"""Benchmark of the expanderlab pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (bench/workloads.py): demo, crossval, semigroup, dynamics.  Run
from the root of a checkout; expanderlab is imported from its src/.

Every pass runs in a fresh interpreter (bench/worker.py), one operation at
a time, with BLAS/OpenMP pinned to one thread, because that is how a CLI
user meets the code; a cache kept in memory across passes cannot pass for a
speed-up.  Passes repeat until S seconds have gone (at least one).

With --trace 0 the last line reports the end-to-end metrics:
  wall_s       median over passes of the timed body's wall time;
  setup_s      median over at least five fresh interpreters of interpreter
               start, import and the workload's own set-up;
  peak_rss_mb  median peak resident memory of a pass;
  ops_ok_frac  operations that passed their correctness gate, over those
               attempted (failed/attempted is printed as ops_failed_frac).
wall_s and setup_s are seconds at reference core speed: each raw time is
multiplied by the speed its own process measured while it ran (see
SpeedSampler in bench/worker.py).  On a shared host raw times drift by
15-30% between runs; the scaled times move by 5-15%.  The raw figures are
printed too.

With --trace 1 two more passes run with every layer boundary wrapped
(bench/instrument.py) and the last line reports the per-layer metrics; the
work counters must repeat exactly between the two traced passes and the
layer self times must add up to the traced wall time, or the result is
marked incorrect.  Span times leave out the speed sampler's own share;
trace.overhead_frac compares traced and untraced passes at reference
speed.  Earlier lines give the versions, the sample counts and
quartiles, and every operation's gate values.

Exit 0 with one JSON line last; exit 1, without a result, when a pass
cannot run at all (no src/ tree, a worker crash, the time budget spent).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("demo", "crossval", "semigroup", "dynamics")
MIN_SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0            # every run must end within 180 s
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "ops_ok_frac": "frac"}
# per-layer metrics read off the gates and the passes, not off the spans
PROBES = ("spectral.sturm_probe", "semigroup.even_d_probe")
REPORT_EXTRAS = ("trace.overhead_frac", "semigroup.oracle_err_max",
                 "cli.artifact_bytes") + tuple(
    f"{p}.{k}" for p in PROBES for k in ("s", "failed_frac"))


class HarnessError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".ms_p50", ".ms_p90", ".node_ms")):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_err_max"):
        return "rel"
    return "count"


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_PINS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), *flags]
    t0 = time.monotonic()
    if deadline - t0 <= 0:
        raise HarnessError("run time budget spent")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=deadline - t0)
    except subprocess.TimeoutExpired:
        raise HarnessError("a pass overran the run time budget") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_raw_s"] = record["setup_end"] - t0
    record["setup_s"] = ((record["setup_raw_s"] - record["setup_sampling_s"])
                         * _speed(record["setup_speeds"]))
    return record


def _speed(samples: list) -> float:
    return statistics.fmean(samples) if samples else 1.0


def _timed(record: dict) -> list:
    return [op for op in record["ops"] if not op["probe"]]


def _wall(record: dict) -> float:
    return sum(op["s"] for op in _timed(record))


def _wall_ref(record: dict) -> float:
    """Timed body at reference speed."""
    return _wall(record) * _speed(record["speeds"])


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _digest_failures(records: list) -> int:
    """Operations whose artifact differs from the first pass's."""
    first, failures = {}, 0
    for rec in records:
        for op in _timed(rec):
            digest = op["values"].get("digest")
            if digest is None:
                continue
            if first.setdefault(op["name"], digest) != digest:
                print(f"# {op['name']}: artifact differs between passes",
                      file=sys.stderr)
                failures += 1
    return failures


def _layer_report(plain: list, traced: list) -> tuple:
    """Per-layer metrics (median of the traced passes) and self-checks."""
    ok = True
    if traced[0]["counts"] != traced[1]["counts"]:
        ok = False
        a, b = traced[0]["counts"], traced[1]["counts"]
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                print(f"# work counter {key} did not repeat: "
                      f"{a.get(key)} vs {b.get(key)}", file=sys.stderr)
    for rec in traced:
        lay = rec["layers"]
        self_sum = sum(v for k, v in lay.items() if k.endswith(".self_s"))
        if abs(self_sum - lay["trace.wall_s"]) > 1e-6 * lay["trace.wall_s"]:
            ok = False
            print(f"# layer self times sum to {self_sum}, traced wall is "
                  f"{lay['trace.wall_s']}", file=sys.stderr)

    metrics = {k: statistics.median(rec["layers"][k] for rec in traced)
               for k in traced[0]["layers"]}
    plain_wall = statistics.median(_wall_ref(r) for r in plain)
    traced_wall = statistics.median(_wall_ref(r) for r in traced)
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall

    timed_values = [op["values"] for r in traced for op in _timed(r)]
    metrics["semigroup.oracle_err_max"] = max(
        (v["oracle_err"] for v in timed_values if "oracle_err" in v),
        default=0.0)
    metrics["cli.artifact_bytes"] = max(
        (v["artifact_bytes"] for v in timed_values if "artifact_bytes" in v),
        default=0)
    for probe in PROBES:
        runs = [op for r in traced for op in r["ops"] if op["probe"] == probe]
        metrics[f"{probe}.s"] = (statistics.median(op["s"] for op in runs)
                                 if runs else 0.0)
        metrics[f"{probe}.failed_frac"] = (
            sum(not op["ok"] for op in runs) / len(runs) if runs else 0.0)
    return metrics, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "expanderlab" / "__init__.py").is_file():
        print(f"no expanderlab source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 1

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    try:
        plain = []
        while not plain or time.monotonic() - start < args.seconds:
            plain.append(spawn(args.workload, args.seed, deadline))
        traced = [spawn(args.workload, args.seed, deadline, "--trace")
                  for _ in range(2 if args.trace else 0)]
        setups = plain + traced
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, deadline,
                                "--setup-only"))
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    records = plain + traced
    attempted = sum(len(_timed(r)) for r in records)
    failed = (sum(not op["ok"] for r in records for op in _timed(r))
              + _digest_failures(records))
    print("# env " + json.dumps({**records[0]["versions"],
                                 "nproc": len(os.sched_getaffinity(0)),
                                 "threads_pinned": list(THREAD_PINS)}))
    for rec in records:
        for op in rec["ops"]:
            print("# op " + json.dumps(op))
    walls = [_wall_ref(r) for r in plain]
    setup_ref = [r["setup_s"] for r in setups]
    for name, ref, raw in (
            ("wall_s", walls, [_wall(r) for r in plain]),
            ("setup_s", setup_ref, [r["setup_raw_s"] for r in setups])):
        (q1, q3), (r1, r3) = _quartiles(ref), _quartiles(raw)
        print(f"# {name} median {statistics.median(ref):.4f} s at reference "
              f"speed (quartiles {q1:.4f}..{q3:.4f}), raw median "
              f"{statistics.median(raw):.4f} s (quartiles {r1:.4f}..{r3:.4f}),"
              f" n={len(ref)}")
    print(f"# ops_failed_frac {failed / attempted:.4f} ({failed}/{attempted})")

    correct = failed == 0
    if args.trace:
        values, consistent = _layer_report(plain, traced)
        correct = correct and consistent
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(values.items())}
    else:
        e2e = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup_ref),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
               "ops_ok_frac": (attempted - failed) / attempted}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
