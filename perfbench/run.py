"""Benchmark of fria: one workload per process, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fria is imported from ``src``.
``--trace 0`` times whole passes of the workload with tracing off and
reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` alternates
an untraced and a traced pass, checks that both give bit-identical
outputs, reports the per-layer metrics and writes the spans of the last
traced pass to ``perfbench/out/``.  Either way every pass's outputs are
checked, and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Only ``bounds_sweep`` draws its inputs from ``--seed``; the other
workloads are deterministic and ignore it.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# one thread per workload process, never more than the CPUs available
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 11
WORKLOAD_NAMES = ("table2_aniso", "manufactured_square", "oracle_cfa", "bounds_sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint(obj):
    """SHA-256 over the exact bits of nested tuples, floats and arrays."""
    import numpy as np  # imported only after main() has set the thread variables

    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"a{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"(%d" % len(x))
            for item in x:
                feed(item)
            h.update(b")")
        elif isinstance(x, float):
            h.update(b"f" + struct.pack("<d", x))
        else:
            h.update(f"{type(x).__name__}:{x!r}".encode())

    feed(obj)
    return h.hexdigest()


def setup_times(env, repeats):
    """Seconds from a fresh interpreter to ``import fria`` done, per repeat."""
    cmd = [sys.executable, "-c", "import fria"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def timed_pass(wl, inputs):
    """Outputs of one pass and the wall time of each of its steps."""
    out, times = [], []
    t0 = time.perf_counter()
    for _ in wl.steps(inputs, out):
        t1 = time.perf_counter()
        times.append(t1 - t0)
        t0 = t1
    return out, times


def untraced_passes(wl, inputs, seconds):
    """Whole passes until the next one would overrun ``seconds``."""
    step_times, prints, first = [], [], None
    start = time.perf_counter()
    while True:
        out, times = timed_pass(wl, inputs)
        step_times.append(times)
        prints.append(fingerprint(out))
        if first is None:
            first = out
        typical = statistics.median(sum(t) for t in step_times)
        if time.perf_counter() - start + typical > seconds:
            return step_times, prints, first


def traced_pairs(wl, inputs, seconds, tracing, workloads):
    """Alternate untraced and traced passes; the traced one records spans."""
    untraced, traced, layers, prints = [], [], [], []
    first = tracer = None
    start = time.perf_counter()
    while True:
        out, times = timed_pass(wl, inputs)
        untraced.append(sum(times))
        if first is None:
            first = out
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            out_traced = tracer.run_root(workloads.run, wl, inputs)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        prints.append((fingerprint(out), fingerprint(out_traced)))
        layers.append({**tracing.layer_metrics(tracer), **wl.counts(out_traced)})
        pair = statistics.median(untraced) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            return untraced, traced, layers, prints, first, tracer


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "thread_vars": list(THREAD_VARS),
    }


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(SRC))
    try:
        import fria
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import fria from {SRC}: {exc}\n")
        return 2
    if Path(fria.__file__).resolve().parent != SRC / "fria":
        sys.stderr.write(f"perfbench: imported {fria.__file__}, not the checkout's {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    seed_note = "" if wl.seeded else " (ignored: deterministic workload)"
    print(f"workload {wl.name} seed {args.seed}{seed_note} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_vars"))

    inputs = wl.prepare(args.seed)
    workloads.run(wl, wl.warm_inputs())

    if args.trace == 0:
        sub_env = dict(os.environ)
        sub_env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        # the first import byte-compiles a fresh checkout; the timed ones are
        # split around the passes so that one slow spell cannot cover them all
        setup = setup_times(sub_env, 1 + SETUP_REPEATS // 2)[1:]
        step_times, prints, first = untraced_passes(wl, inputs, args.seconds)
        setup += setup_times(sub_env, SETUP_REPEATS - len(setup))
        checks = wl.check(inputs, first)
        checks += [("pass output repeats bit for bit", p == prints[0]) for p in prints[1:]]
        items = wl.items(first)
        # each step's fastest repeat, not the median pass: on a shared machine
        # the speed shifts for seconds at a time, and a run's median follows
        # whichever speed held for most of it (see README.md)
        wall = sum(min(step) for step in zip(*step_times))
        values = {
            "wall_s": wall,
            "setup_s": min(setup),
            "items_per_s": items / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        walls = [round(sum(t), 4) for t in step_times]
        print(f"passes {len(walls)} steps {len(step_times[0])} pass_s {walls} items/pass {items}")
        counts = wl.counts(first)
    else:
        untraced, traced, layers, prints, first, tracer = traced_pairs(
            wl, inputs, args.seconds, tracing, workloads
        )
        checks = wl.check(inputs, first)
        checks += [("traced output equals untraced bit for bit", u == t) for u, t in prints]
        checks += [("pass output repeats bit for bit", u == prints[0][0]) for u, _ in prints[1:]]
        values = {k: statistics.median(layer[k] for layer in layers) for k in layers[-1]}
        values["trace.overhead_s"] = min(traced) - min(untraced)
        wanted = spec["per_layer"]
        counts = {k: v for k, v in layers[-1].items() if k not in {m["name"] for m in wanted}}
        print(f"pairs {len(traced)} untraced_s {[round(w, 4) for w in untraced]} "
              f"traced_s {[round(w, 4) for w in traced]}")
        if tracer.absent:
            print("absent layers (targets not found): " + ", ".join(tracer.absent))
        OUT.mkdir(exist_ok=True)
        t0 = tracer.spans[0][1]
        record = {
            "workload": wl.name,
            "seed": args.seed,
            "env": env,
            "untraced_s": untraced,
            "traced_s": traced,
            "absent": tracer.absent,
            "per_layer": values,
            "calls": dict(tracer.calls),
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans],
        }
        path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        path.write_text(json.dumps(record) + "\n")
        print(f"trace written to {path.relative_to(ROOT)}")

    for key, value in counts.items():
        print(f"count {key} {value}")
    failed = [label for label, ok in checks if not ok]
    for label in sorted(set(failed)):
        print(f"FAILED {label}")
    print(f"checks attempted {len(checks)} failed {len(failed)} "
          f"fail_frac {len(failed) / len(checks):g}")

    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
