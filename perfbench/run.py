"""ternsim benchmark: one workload, one seed, one closed-loop caller.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

The program under test is the ``ternsim`` package in ``src/`` next to this
directory; nothing is installed.  The run sets up the workload, then repeats
its round (see ``workloads.py``) until ``--seconds`` have passed, checking
every result.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: host times scaled by a
co-measured speed kernel (see ``Speed``) to cancel machine drift.  ``--trace 1``
spends half the time untraced and half traced, and reports the per-layer
metrics of the traced rounds and the tracing overhead (traced minus untraced
``wall_s``); its spans are written to ``perfbench/out/``.

The BLAS thread count is pinned before numpy loads, so a run uses one thread
for the caller and one for BLAS.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set-up is timed in this many fresh interpreters, so that every sample pays
# the import; the median is reported.
SETUP_REPS = 7
TRACED_SETUP_REPS = 3
SWEEP_KEYS = ("k1", "k2", "k4", "k8")
# Host speed on a shared machine drifts by tens of percent over minutes,
# with CPU time tracking wall time.  A fixed kernel, timed between items,
# measures that drift, and every end-to-end time is scaled to the speed at
# which the kernel takes SPEED_REF_S (its time on the machine the bounds
# were set on).  The raw host figures are printed on their own line.
SPEED_REF_S = 3.0e-3
SPEED_EVERY_S = 0.2
# Per-layer units, by the last part of the metric name.
LAYER_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count", "us_per_call": "us",
               "newton_iters_per_step": "1/step", "changed_ratio": "ratio",
               "overhead_s": "s", "error_rate": "ratio"}


def import_program() -> None:
    """Put ``src/`` first on the path; fail unless ternsim loads from there."""
    if not (SRC / "ternsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ternsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ternsim
    if SRC not in Path(ternsim.__file__).resolve().parents:
        raise SystemExit(f"perfbench: ternsim loaded from {ternsim.__file__}")


def speed_kernel() -> None:
    """Fixed work like the solver's: scalar numpy updates and small solves,
    then the copies and the solve of one larger dense system."""
    import numpy as np
    n = 40
    idx = np.arange(n)
    for it in range(20):
        jac, rhs = np.zeros((n, n)), np.zeros(n)
        for k in range(n):
            v = 0.3 + 0.01 * k
            g = 0.5 * v * v + 1e-3 * it
            jac[k, k] += g + 1.0
            jac[k, (7 * k + 3) % n] -= g
            rhs[k] += v
        np.linalg.solve(jac[np.ix_(idx, idx)], rhs)
    m = 240
    big = np.eye(m) * 4.0 + np.ones((m, m)) * 1e-3
    rows = np.arange(m)
    np.linalg.solve(big.copy()[np.ix_(rows, rows)], np.ones(m))


class Speed:
    """Times of ``speed_kernel``, about one per SPEED_EVERY_S of run time.

    Between long items the kernel runs once for each period that passed, so
    every workload gets the same number of samples per second.
    """

    def __init__(self):
        self.samples = []
        self._last = None

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        due = 1 if self._last is None else int((now - self._last) / SPEED_EVERY_S)
        for _ in range(max(due, int(force))):
            t0 = time.perf_counter()
            speed_kernel()
            self.samples.append(time.perf_counter() - t0)
        if due or force:
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns host seconds into seconds at reference speed."""
        return SPEED_REF_S / statistics.median(self.samples)


def probe_setup(workload: str, seed: int) -> None:
    """Child process: print the seconds taken to import ternsim and set up,
    and the speed scale measured right after."""
    t0 = time.perf_counter()
    import_program()
    import workloads
    workloads.WORKLOADS[workload](seed, {}).setup()
    elapsed = time.perf_counter() - t0
    speed = Speed()
    for _ in range(5):
        speed.sample(force=True)
    print(elapsed, speed.scale())


def setup_seconds(workload: str, seed: int) -> tuple:
    """Median set-up seconds over fresh interpreters: host and scaled."""
    host, scaled = [], []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        elapsed, scale = map(float, done.stdout.split()[-2:])
        host.append(elapsed)
        scaled.append(elapsed * scale)
    return statistics.median(host), statistics.median(scaled)


def machine(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.26
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS)}


def run_rounds(items, seconds: float, tracer=None, speed=None) -> list:
    """Repeat the round of ``items`` for about ``seconds``, at least once.

    A new round starts only if it would end less than half a round late.
    A round's ``wall_s`` is the sum of its items' times, so speed samples
    taken between items do not count.
    """
    from workloads import Outcome
    rounds = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + rounds[-1]["wall_s"] / 2 < seconds):
        rnd = {"latency_s": [], "vectors": 0, "steps": 0, "attempted": 0,
               "failed": 0, "wall_s": 0.0}
        if tracer is not None:
            tracer.reset()
        for item in items:
            if tracer is not None:
                tracer.item = item.label
            if speed is not None:
                speed.sample()
            ti = time.perf_counter()
            try:
                out = item.run()
            except Exception:  # a raising item counts as failed; go on
                traceback.print_exc()
                out = Outcome(0, 0, item.attempted)
            elapsed = time.perf_counter() - ti
            rnd["wall_s"] += elapsed
            if out.vectors:
                rnd["latency_s"].append(elapsed / out.vectors)
            rnd["vectors"] += out.vectors
            rnd["steps"] += out.steps
            rnd["attempted"] += item.attempted
            rnd["failed"] += out.failed
        if tracer is not None:
            from tracer import round_metrics
            rnd["layers"] = round_metrics(tracer, rnd["steps"])
        rounds.append(rnd)
    return rounds


def end_to_end(rounds: list, setup_s: float, scale: float = 1.0) -> dict:
    """End-to-end metrics; times are multiplied by ``scale``."""
    busy = sum(r["wall_s"] for r in rounds) * scale
    latency = [s for r in rounds for s in r["latency_s"]]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds) * scale, "s"),
        "vectors_per_s": (sum(r["vectors"] for r in rounds) / busy, "1/s"),
        "vector_ms_p50": (statistics.median(latency) * 1e3 * scale, "ms"),
        "steps_per_s": (sum(r["steps"] for r in rounds) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced(workload, plain: list, seconds: float, spans_path: Path) -> tuple:
    """Per-layer metrics: traced set-up, traced rounds and the size sweep.

    Returns the metrics and the traced rounds, whose checks count too.
    """
    import tracer as tr
    t = tr.Tracer()
    with t:
        setup = []
        for _ in range(TRACED_SETUP_REPS):
            t.reset()
            type(workload)(workload.seed, workload.reference).setup()
            setup.append(tr.setup_metrics(t))
        rounds = run_rounds(workload.items(), seconds, t)
        sweep = {key: run_rounds([item], 0, t)[0]
                 for key, item in workload.sweep()}
    OUT.mkdir(exist_ok=True)
    t.write_spans(spans_path)
    metrics = {}
    for samples in (setup, [r["layers"] for r in rounds]):
        for key in samples[0]:  # median_low keeps counts whole
            metrics[key] = statistics.median_low(s[key] for s in samples)
    solve_us = {k: r["layers"]["engine.linsolve.us_per_call"]
                for k, r in sweep.items()}
    if sweep:
        solve_us["k8"] = metrics["engine.linsolve.us_per_call"]
    for key in SWEEP_KEYS:
        metrics[f"engine.linsolve.{key}.us_per_call"] = solve_us.get(key, 0.0)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in rounds)
        - statistics.median(r["wall_s"] for r in plain))
    out = {k: (v, LAYER_UNITS[k.split(".")[-1]]) for k, v in metrics.items()}
    return out, rounds + list(sweep.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0
    import_program()
    import numpy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choices: {sorted(workloads.WORKLOADS)}")
    print(json.dumps({"machine": machine(numpy)}))
    workload = workloads.WORKLOADS[args.workload](args.seed,
                                                  workloads.load_reference())
    workload.setup()
    items = workload.items()
    if args.trace:
        rounds = run_rounds(items, args.seconds / 2)
        metrics, more = traced(
            workload, rounds, args.seconds / 2,
            OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        rounds += more
    else:
        setup_host, setup_s = setup_seconds(args.workload, args.seed)
        speed = Speed()
        rounds = run_rounds(items, args.seconds, speed=speed)
        speed.sample(force=True)
        metrics = end_to_end(rounds, setup_s, speed.scale())
        host = end_to_end(rounds, setup_host)
        print(json.dumps({"host": {k: v for k, (v, _) in host.items()},
                          "speed_kernel_s": statistics.median(speed.samples)}))
    attempted = workload.setup_checks + sum(r["attempted"] for r in rounds)
    failed = workload.setup_failed + sum(r["failed"] for r in rounds)
    if args.trace:
        metrics["error_rate"] = (failed / attempted, LAYER_UNITS["error_rate"])
    print(json.dumps({"rounds": len(rounds),
                      "vectors": sum(r["vectors"] for r in rounds),
                      "steps": sum(r["steps"] for r in rounds)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
