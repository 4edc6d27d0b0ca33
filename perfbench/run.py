"""trfield benchmark: one run of one workload.

    python3 perfbench/run.py --workload exact_gram --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout, against ``src/trfield``.  Set-up
is timed in ``SETUP_PROBES`` throw-away processes plus the measuring one;
the measuring process (``worker.py``) runs the workload's job list as a
closed loop with one client.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Human-readable lines come
first; the last line of standard output is the JSON result.  Metric names
and units are read from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

DEV_SEED = 1          # the seed used while writing the benchmark
HELDOUT_SEED = 4099   # kept aside to re-check a claim on unseen inputs
SETUP_PROBES = 4
DEADLINE_S = 170.0    # a run must end within 180 s
MAX_THREADS = 1       # BLAS threads: nproc, at most this many


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Spawner:
    """Starts ``worker.py`` processes with the benchmark's environment and
    a shared deadline."""

    def __init__(self, args, threads):
        self.args = args
        self.threads = threads
        self.start = time.monotonic()
        self.count = 0
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else []))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(threads)

    def __call__(self, *extra):
        self.count += 1
        a = self.args
        work = os.path.join(WORK, a.workload)
        os.makedirs(work, exist_ok=True)
        result = os.path.join(work, f"worker-{self.count}.json")
        if os.path.exists(result):
            os.remove(result)
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise TimeoutError("out of time before the worker started")
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--work", WORK, "--result", result,
               "--threads", str(self.threads), "--t0", repr(t0), *extra]
        if a.quick:
            cmd.append("--quick")
        if a.corrupt:
            cmd += ["--corrupt", a.corrupt]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=left,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n"
                               + proc.stderr[-2000:])
        with open(result) as fh:
            return json.load(fh)


def _end_to_end(res, setup):
    """Metric -> (value, per-sample values).  A time is the median of its
    samples; ``values_per_s`` is all values over all simulate wall time."""
    ok = (res["attempted"] - res["failed"]) / res["attempted"]
    rates = [v / w for v, w in zip(res["values"], res["sim_wall_s"])]
    samples = {"wall_s": res["wall_s"],
               "setup_s": [s["setup_s"] for s in setup]}
    out = {name: (statistics.median(v), v) for name, v in samples.items()}
    out["values_per_s"] = (sum(res["values"]) / sum(res["sim_wall_s"]), rates)
    out["ok_frac"] = (ok, [ok])
    out["peak_rss_mb"] = (res["peak_rss_mb"], [res["peak_rss_mb"]])
    return out


def _unscaled(res, setup):
    """Medians of the times before scaling to the reference speed."""
    return {"wall_s": statistics.median(res["raw_wall_s"]),
            "setup_s": statistics.median(s["raw_setup_s"] for s in setup)}


def _per_layer(res, names):
    layers = res["layers"]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = layers["overhead_s"]
        elif name.endswith(".self_s"):
            out[name] = layers["self_s"][name[:-len(".self_s")]]
        else:
            out[name] = layers["counts"].get(name, 0)
    return out


def _print_notes(args, res):
    notes = res["notes"]
    print(f"# workload {args.workload}  seed {args.seed} (development seed "
          f"{DEV_SEED}, held-out seed {HELDOUT_SEED})  seconds "
          f"{args.seconds}  trace {args.trace}")
    print(f"# machine: nproc {notes['nproc']}, {notes['cpu_model']}, caches "
          f"{notes['caches']}; python {notes['python']}, numpy "
          f"{notes['numpy']}, BLAS {notes['blas']} pinned to "
          f"{notes['blas_threads']} thread(s); {notes['backend']}")
    print(f"# closed loop, 1 client; {len(res['jobs'])} jobs per pass: "
          f"{', '.join(res['jobs'])}")
    base = res["attempted"]
    print(f"# failed_frac {res['failed'] / base:.6g} = {res['failed']} failed "
          f"of {base} jobs attempted ({res['passes']} timed passes"
          f"{' + as many traced' if args.trace else ''}); failed in the "
          f"warm-up pass: {res['failed_per_pass'] or 'none'}")
    for job, why in sorted(res["failures"].items()):
        print(f"#   {job}: {why}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="shortened workloads (the benchmark's own test)")
    p.add_argument("--corrupt", metavar="JOB",
                   help="corrupt JOB's first draw (the benchmark's own test)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "trfield", "__init__.py")):
        print(f"no trfield sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    threads = max(1, min(len(os.sched_getaffinity(0)), MAX_THREADS))
    spawn = Spawner(args, threads)
    try:
        setup = [spawn("--setup-only") for _ in range(SETUP_PROBES)]
        res = spawn()
    except (subprocess.TimeoutExpired, TimeoutError, RuntimeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setup.append(res)

    _print_notes(args, res)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        values = _per_layer(res, units)
        if not res["layers"]["counts_repeat"]:
            print("# WARNING: per-layer counts differ between traced passes")
        for name, value in values.items():
            print(f"{name} = {value:.6g} {units[name]}")
        metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    else:
        samples = _end_to_end(res, setup)
        unscaled = _unscaled(res, setup)
        metrics = {}
        for name, unit in units.items():
            value, values = samples[name]
            q1, med, q3 = _quartiles(values)
            raw = f"; unscaled median {unscaled[name]:.6g} {unit}" \
                if name in unscaled else ""
            print(f"{name} = {value:.6g} {unit} (samples: median {med:.6g}, "
                  f"q1 {q1:.6g}, q3 {q3:.6g}, n = {len(values)}{raw})")
            metrics[name] = {"value": value, "unit": unit}
    result = {"correct": res["incorrect"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(WORK, args.workload,
                           f"result-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, seed=args.seed, raw=res, setup=setup[:-1]),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
