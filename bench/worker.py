"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Imports expanderlab from the checkout's src/, runs the workload's set-up,
then its operations one at a time, and prints one JSON object as the last
line of standard output.  `setup_end` is read on the system-wide monotonic
clock so that the parent, which started this interpreter, can measure
interpreter start, import and set-up together.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = Path(".bench_work")     # relative: it is echoed into artifacts


class SpeedSampler:
    """Samples the speed of the core this process runs on, in situ.

    Every PERIOD_S a SIGALRM handler times a fixed pure-Python loop; its
    duration against REFERENCE_S gives the speed the surrounding work ran
    at.  On a shared host that speed drifts by tens of percent over seconds
    to minutes, and raw times inherit the drift.  The handler's own time is
    kept in `spent` so that it can be taken out again.  REFERENCE_S is the
    loop's duration on an unloaded core of a 2-vCPU Xeon VM; only ratios
    between runs on one host matter.
    """

    PERIOD_S = 0.1
    REFERENCE_S = 1.2e-3
    LOOP = 20000

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(self.LOOP):
            acc += i * 0.5
        t1 = time.perf_counter()
        self.speeds.append(self.REFERENCE_S / (t1 - t0))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _run_op(op, tracer, clock):
    """Run one operation and its gate; a failure is a result, not a crash."""
    traced = tracer is not None and not op.probe
    error, ok, values = None, False, {}
    t0 = clock()
    try:
        if traced:
            span = tracer.open("bench.op", "bench")
            tracer.active = True
            try:
                out = op.run()
            finally:
                tracer.active = False
                tracer.close(span)
        else:
            out = op.run()
    except Exception as exc:  # an operation's failure is a result
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    seconds = clock() - t0
    if error is None:
        try:
            ok, values = op.check(out)
        except Exception as exc:  # a gate that cannot read its output
            error = f"check {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
    return {"name": op.name, "probe": op.probe, "s": seconds,
            "ok": bool(ok), "error": error, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with SpeedSampler() as setup_sampler:
        sys.path.insert(0, str(ROOT / "src"))
        import numpy
        import scipy

        import workloads
        ops = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end, "setup_speeds": setup_sampler.speeds,
              "setup_sampling_s": setup_sampler.spent}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    sampler = SpeedSampler()

    def clock():
        """Time with the sampler's own share taken out, spans included.
        A sample landing between the two reads would step the clock back."""
        while True:
            spent = sampler.spent
            now = time.perf_counter()
            if sampler.spent == spent:
                return now - spent

    tracer = None
    if args.trace:
        import instrument
        from spans import Tracer
        tracer = Tracer(clock)
        instrument.install(tracer)

    with sampler:
        result["ops"] = [_run_op(op, tracer, clock) for op in ops
                         if tracer is not None or not op.probe]
    result["speeds"] = sampler.speeds
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    if tracer is not None:
        import instrument
        result["layers"] = instrument.layer_metrics(tracer)
        result["counts"] = instrument.work_counts(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
