"""One workload run in a fresh process (started by ``run.py``).

The process imports trfield, writes the workload's configs, runs one
untimed warm-up pass, then timed passes until ``--seconds`` have gone,
checking every pass's outputs between passes.  With ``--trace 1`` the
timed passes alternate untraced and traced.  The result is written as
JSON to ``--result``; ``run.py`` aggregates and prints it.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

# Calibrator() on the reference machine (Xeon, 2 shared vCPUs) at full
# speed; the same machine also spends tens of seconds at about 0.7 of it
CAL_REF_S = 0.013


def _setup(args):
    """Import trfield and write the workload's configs; return the jobs,
    their config paths and the work directory."""
    import trfield.cli  # noqa: F401  (the import is part of set-up)
    jobs = workloads.build(args.workload, args.seed, quick=args.quick)
    work = os.path.join(args.work, args.workload)
    cfg_dir = os.path.join(work, "cfg")
    out_dir = os.path.join(work, "out")
    os.makedirs(cfg_dir, exist_ok=True)
    paths = {}
    for job in jobs:
        text = json.dumps(job.config, indent=1, sort_keys=True)
        path = os.path.join(cfg_dir, job.name + ".json")
        with open(path, "w") as fh:
            fh.write(text.replace("{out}", out_dir))
        paths[job.name] = path
    return jobs, paths, out_dir


def _run_job(job, cfg, out):
    """Run one job through ``trfield.cli.main``; return (wall, error)."""
    import trfield.cli
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = trfield.cli.main([job.command, "--config", cfg,
                                     "--out", out])
        error = None if code == 0 else f"exit {code}: {_last_line(sink)}"
    except Exception as exc:  # a raising job is a failed job, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    except SystemExit as exc:
        error = f"exit {exc.code}: {_last_line(sink)}"
    return time.perf_counter() - t0, error


def _last_line(sink):
    lines = sink.getvalue().strip().splitlines()
    return lines[-1] if lines else ""


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file()) \
        if os.path.isdir(path) else 0


class Runner:
    """Runs passes over one workload's jobs and checks their outputs.

    The machine's speed is calibrated at the start and after every job.
    ``scale`` multiplies a job's wall time by ``CAL_REF_S`` over the mean
    of the six calibrations around it (three before, three after), which
    follows the machine's slow switches of speed without following the
    noise of a single calibration.
    """

    def __init__(self, jobs, paths, out_dir, calibrate, corrupt=None):
        self.jobs = jobs
        self.calibrate = calibrate
        self.paths = paths
        self.out_dir = out_dir
        self.corrupt = corrupt
        self.refs = {}
        self.first_outputs = {}
        self.failures = {}
        self.cal = []

    def run_pass(self, tracer=None):
        """One pass; returns its raw job times and outcomes."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        if not self.cal:
            self.cal.append(self.calibrate())
        walls, cal_index, errors = {}, {}, {}
        for job in self.jobs:
            if tracer is not None:
                tracer.install()
                tracer.job = job.name
            walls[job.name], errors[job.name] = _run_job(
                job, self.paths[job.name],
                os.path.join(self.out_dir, job.name))
            if tracer is not None:
                tracer.uninstall()
            self.cal.append(self.calibrate())
            cal_index[job.name] = len(self.cal) - 1
        if tracer is not None:
            tracer.counts["cli.bytes_written"] += sum(
                _dir_bytes(os.path.join(self.out_dir, job.name))
                for job in self.jobs)
        outcome = self._outcome(errors)
        outcome.update(raw_job_walls=walls, raw_wall=sum(walls.values()),
                       cal_index=cal_index)
        return outcome

    def scale(self, outcome):
        """Add the pass's scaled times, once the calibrations after its
        last job have been taken."""
        scaled = {}
        for name, wall in outcome["raw_job_walls"].items():
            at = outcome["cal_index"][name]
            window = self.cal[max(0, at - 3):at + 3]
            scaled[name] = wall * CAL_REF_S / statistics.fmean(window)
        outcome["job_walls"] = scaled
        outcome["wall"] = sum(scaled.values())
        outcome["sim_wall"] = sum(scaled[name] for name in outcome["ok_sims"])

    def _outcome(self, errors):
        from checks import check, manifest_outputs
        if self.corrupt:
            _corrupt_first_draw(os.path.join(self.out_dir, self.corrupt))
        failed, incorrect, ok_sims = [], [], []
        values = 0
        for job in self.jobs:
            out = os.path.join(self.out_dir, job.name)
            problem = errors[job.name]
            if problem is None:
                problem = check(job, out, self.refs)
                outputs = manifest_outputs(out)
                first = self.first_outputs.setdefault(job.name, outputs)
                if problem is None and outputs != first:
                    problem = "outputs differ from the first pass"
                if problem is not None:
                    incorrect.append(job.name)
            if problem is not None:
                failed.append(job.name)
                self.failures.setdefault(job.name, problem)
            elif job.command == "simulate":
                values += job.n_values
                ok_sims.append(job.name)
        return {"failed": failed, "incorrect": incorrect, "values": values,
                "ok_sims": ok_sims}


def _corrupt_first_draw(out):
    """Shift the first draw by 1 (test hook: must be caught as failed)."""
    from trfield.simulate import Realization
    path = os.path.join(out, "draw_0000.trf")
    real = Realization.load(path)
    real.values += 1.0
    real.save(path)


class Calibrator:
    """Times a fixed mix of interpreter, small-array numpy, large-array
    numpy, complex and memory-bound BLAS work, best of two: the machine's
    current speed."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.small = np.linspace(0.1, 1.0, 15)
        self.x = np.linspace(0.1, 10.0, 250000)
        self.m = np.sin(np.arange(1024 * 2048, dtype=float)).reshape(1024, 2048)
        self.v = np.ones(2048)
        self.phase = np.linspace(0.0, 50.0, 256 * 256).reshape(256, 256)
        self.z = np.exp(1j * np.arange(256.0))

    def __call__(self):
        np = self.np
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(1, 10000):
                acc += math.sqrt(i) * math.exp(-i * 1e-5)
            for _ in range(1000):
                acc += float(np.sum(np.exp(-self.small) * self.small ** 0.7))
            acc += float(np.sum(np.exp(-self.x) * self.x ** 0.7))
            for _ in range(2):
                acc += float(np.sum(self.m @ self.v))
            acc += abs(np.sum((np.exp(-1j * self.phase) - 1.0) @ self.z))
            best = min(best, time.perf_counter() - t0)
        return best


def machine_notes(threads):
    import numpy as np
    import trfield
    from trfield._accel import NUMBA_ENABLED
    notes = {"nproc": len(os.sched_getaffinity(0)),
             "cpu_model": None, "caches": {},
             "python": platform.python_version(), "numpy": np.__version__,
             "trfield": trfield.__version__, "blas": None,
             "blas_threads": threads,
             "backend": "numba" if NUMBA_ENABLED
             else "numba absent: numpy path"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    notes["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)):
            def read(name):
                with open(os.path.join(base, index, name)) as fh:
                    return fh.read().strip()
            notes["caches"][f"L{read('level')}{read('type')[0].lower()}"] = \
                read("size")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        notes["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return notes


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--corrupt", default=None)
    args = p.parse_args(argv)

    jobs, paths, out_dir = _setup(args)
    setup_s = time.monotonic() - args.t0
    calibrate = Calibrator()
    result = {"raw_setup_s": setup_s,
              "setup_s": setup_s * CAL_REF_S / calibrate()}
    if not args.setup_only:
        result.update(_measure(args, jobs, paths, out_dir, calibrate))
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def _measure(args, jobs, paths, out_dir, calibrate):
    from tracing import LAYERS, Tracer
    runner = Runner(jobs, paths, out_dir, calibrate, corrupt=args.corrupt)
    warm = runner.run_pass()
    passes, traced, tracers = [], [], []
    deadline = time.monotonic() + args.seconds
    while not passes or time.monotonic() < deadline:
        passes.append(runner.run_pass())
        if args.trace:
            tracer = Tracer()
            traced.append(runner.run_pass(tracer))
            if not tracers:
                tracer.dump(os.path.join(args.work, args.workload,
                                         "spans.jsonl"))
            tracers.append(tracer)
    measured = passes + traced
    for p in measured:
        runner.scale(p)
    out = {
        "passes": len(passes),
        "jobs": [job.name for job in jobs],
        "attempted": len(jobs) * len(measured),
        "failed": sum(len(p["failed"]) for p in measured),
        "incorrect": sum(len(p["incorrect"]) for p in measured + [warm]),
        "failed_per_pass": warm["failed"],
        "failures": runner.failures,
        "wall_s": [p["wall"] for p in passes],
        "raw_wall_s": [p["raw_wall"] for p in passes],
        "raw_job_walls": [p["raw_job_walls"] for p in passes],
        "cal_s": runner.cal,
        "values": [p["values"] for p in passes],
        "sim_wall_s": [p["sim_wall"] for p in passes],
        "job_wall_s": {job.name: statistics.median(
            p["job_walls"][job.name] for p in passes) for job in jobs},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "notes": machine_notes(args.threads),
    }
    if args.trace:
        out["layers"] = _layer_metrics(tracers, traced, passes, LAYERS)
    return out


def _layer_metrics(tracers, traced, passes, layers):
    """Per-layer counts of the first traced pass (``counts_repeat`` says
    whether every traced pass counted the same) and median self times."""
    counts = dict(tracers[0].counts)
    selfs = [t.self_seconds() for t in tracers]
    metrics = {"counts": counts,
               "counts_repeat": all(dict(t.counts) == counts
                                    for t in tracers),
               "self_s": {layer: statistics.median(s[layer] for s in selfs)
                          for layer in layers.values()},
               "overhead_s": statistics.median(p["wall"] for p in traced)
               - statistics.median(p["wall"] for p in passes)}
    return metrics


if __name__ == "__main__":
    main()
