"""Run one seeded hymem workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, run_s, peak_rss_mb,
oracle_err); with ``--trace 1`` they are the per-layer ones of
``tracing.LAYER_METRICS``.  A record of the machine, the output digests and
every repeat's values is appended to ``.bench_results/<workload>.jsonl`` in
the checkout, and a traced run writes its spans next to it.
"""

import os

# Pinned before numpy is first imported, here and in the set-up probes.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORKLOAD_NAMES = ("razumikhin-reachable", "krasovskii-cover", "delay-horizon")
SETUP_REPEATS = 5
MIN_REPEATS = 3

# The checkout's own sources, never an installed copy of hymem.
sys.path.insert(0, str(SRC))
try:
    import hymem  # noqa: E402
except ModuleNotFoundError:
    raise SystemExit(f"run.py: no hymem sources under {SRC}")
if Path(hymem.__file__).resolve().parent != SRC / "hymem":
    raise SystemExit(f"run.py: imported hymem from {hymem.__file__}, not {SRC}")

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def measure_setup(name: str, seed: int, repeats: int = SETUP_REPEATS):
    """Seconds from starting a fresh process until it has imported hymem and
    built the workload's inputs (see setup_probe.py), and the host-speed
    scale of each."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    times, kernels = [], [hostspeed.time_kernel()]
    for _ in range(repeats):
        start = perf_counter()
        done = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True,
                              text=True)
        times.append(float(done.stdout.split()[-1]) - start)
        kernels.append(hostspeed.time_kernel())
    return times, hostspeed.scales(kernels)


def measure(make, seconds: float, trace: bool) -> dict:
    """Time repeats of the workload body for ``seconds`` and gate every output.

    ``run_s`` is the median over repeats of each repeat's wall time scaled
    to host speed (see hostspeed.py); the raw times and the kernel times
    are kept in the run record.

    ``make`` builds the workload; with ``trace`` it is built under a tracer
    (for ``builtin.certificate.s``) and untraced and traced repeats alternate,
    so ``trace.overhead_frac`` compares them under the same conditions.
    """
    build = tracing.Tracer()
    with build if trace else contextlib.nullcontext():
        wl = make()
    gates = workloads.Gate()
    gates.add(wl.control(), "control")  # also warms caches before timing

    repeats, layer_runs, digests = [], [], []  # repeats: (traced, seconds)
    kernels = [hostspeed.time_kernel()]
    spans = None
    oracle_err = None
    deadline = perf_counter() + seconds
    while True:
        n_traced = sum(traced for traced, _ in repeats)
        n_plain = len(repeats) - n_traced
        if (perf_counter() >= deadline and n_plain >= MIN_REPEATS
                and (not trace or n_traced >= MIN_REPEATS)):
            break
        traced = trace and n_traced < n_plain
        tracer = tracing.Tracer() if traced else contextlib.nullcontext()
        spec = tracer.wrap_spec(wl.spec) if traced else wl.spec
        gc.collect()
        with tracer:
            start = perf_counter()
            out = wl.run(spec)
            elapsed = perf_counter() - start
        repeats.append((traced, elapsed))
        if traced:
            layer_runs.append(tracer.layer_values())
            spans = spans or tracer.span_records()
        gate = wl.gate(out)
        digests.append(wl.digests(out))
        if digests[-1] != digests[0]:
            gate.failed = gate.attempted
            gate.problems.append("output differs from the first repeat")
        gates.add(gate, f"repeat {len(digests)}")
        if oracle_err is None:
            oracle_err = wl.oracle_err(out)
        del out
        kernels.append(hostspeed.time_kernel())
    scaled = [(traced, t * c) for (traced, t), c
              in zip(repeats, hostspeed.scales(kernels))]
    plain_times = [t for traced, t in repeats if not traced]
    traced_times = [t for traced, t in repeats if traced]
    plain_scaled = [t for traced, t in scaled if not traced]
    traced_scaled = [t for traced, t in scaled if traced]

    result = {"gates": gates, "digests": digests[0],
              "plain_times": plain_times, "traced_times": traced_times,
              "kernel_times": kernels, "plain_scaled": plain_scaled}
    if not trace:
        result["metrics"] = {
            "run_s": statistics.median(plain_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "oracle_err": oracle_err,
        }
        return result

    first = layer_runs[0]
    for i, values in enumerate(layer_runs[1:], start=2):
        diff = [k for k in tracing.COUNTS if values[k] != first[k]]
        if diff:
            gates.failed += 1
            gates.problems.append(f"traced repeat {i}: counts differ: {diff}")
    # Times come from the fastest traced repeat, so they add up within it.
    fastest = layer_runs[traced_times.index(min(traced_times))]
    layer = {k: (first[k] if k in tracing.COUNTS else fastest[k]) for k in first}
    layer["builtin.certificate.s"] = build.layer_values()["builtin.certificate.s"]
    layer["trace.overhead_frac"] = (statistics.median(traced_scaled)
                                    / statistics.median(plain_scaled) - 1.0)
    result["metrics"] = layer
    result["absent"] = build.absent
    result["spans"] = spans
    return result


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "platform": platform.platform()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        ap.error("--seconds and --seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "oracle_err": "rel"}
    units.update({k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()})

    setup_times, setup_scales = ([], []) if args.trace else measure_setup(
        args.workload, args.seed)
    make = lambda: workloads.WORKLOADS[args.workload](args.seed)  # noqa: E731
    res = measure(make, args.seconds, bool(args.trace))
    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": statistics.median(
            t * c for t, c in zip(setup_times, setup_scales)), **metrics}
    gates = res["gates"]

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if res.get("spans") is not None:
        with open(RESULTS / f"spans-{stem}.json", "w") as fh:
            json.dump(res["spans"], fh)
    record = {"args": vars(args), "machine": machine_record(),
              "digests": res["digests"], "setup_times": setup_times,
              "setup_scales": setup_scales,
              "plain_times": res["plain_times"],
              "plain_scaled": res["plain_scaled"],
              "kernel_times": res["kernel_times"],
              "traced_times": res["traced_times"],
              "absent_wrappers": res.get("absent", []),
              "problems": gates.problems, "attempted": gates.attempted,
              "failed": gates.failed, "metrics": metrics}
    with open(RESULTS / f"{args.workload}.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for key, value in res["digests"].items():
        print(f"digest {stem} {key} sha256:{value}")
    for problem in gates.problems:
        print(f"FAILED {problem}")
    if res.get("absent"):
        print(f"absent wrappers: {', '.join(res['absent'])}")
    print(json.dumps({
        "correct": gates.failed == 0 and not gates.problems,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
