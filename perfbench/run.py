#!/usr/bin/env python3
"""elglm benchmark: CLI workloads measured end to end, or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload glm_mix --seed 1 --seconds 45 --trace 0

The run imports ``elglm`` from the checkout's ``src/`` (and nowhere else),
writes the workload's inputs from ``--seed`` three times, runs one warm-up
operation, then runs operations in a closed loop (one client; the next
operation starts when the previous one returns) for ``--seconds``. Every
operation's output is checked outside the timed region; an operation that
raises or fails its check counts as failed and is left out of the latency
figures.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs each operation twice, once traced and once not, alternating the order,
and reports the per-layer metrics: layer counts and times from the traced
copies, workload figures (ESS/s, trials/s, fit quality) from the untraced
copies, and the tracing overhead as the difference of their median latencies.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the run's details. A fuller report, and in traced
runs the spans, go to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
# One BLAS thread: on a 2-core box two OpenBLAS threads made the same small
# dense solve range from 3 to 130 ms. Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
SETUP_REPEATS = 3
# traced runs take their counts from this many operations, a fixed set, so the
# counts repeat exactly between runs on one seed
TRACE_COUNT_OPS = 2


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _environment(np, scipy, cli):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "cd_backend": cli.CD_BACKEND,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB


class Runner:
    """Runs, times and checks one workload's operations."""

    def __init__(self, cli, workload, seed, workdir):
        import numpy as np

        self.cli, self.wl, self.workdir = cli, workload, workdir
        seq = np.random.SeedSequence(seed)
        self.input_seq, op_seq = seq.spawn(2)
        self.op_seed0 = int(op_seq.generate_state(1)[0] % 2**30)
        self.inputs = None
        self.warmup_error = None

    def setup(self, repeats):
        """Write the inputs ``repeats`` times, then run one warm-up operation.

        Each repetition writes into an empty directory; the last one's inputs
        are kept. Returns the input-writing times and the warm-up latency.
        """
        gen_s = []
        for rep in range(repeats):
            self.inputs = None  # one set of inputs in memory at a time
            shutil.rmtree(self.workdir / f"inputs{rep - 1}", ignore_errors=True)
            t0 = time.perf_counter()
            self.inputs = self.wl.generate(self.cli, self.workdir / f"inputs{rep}", self.input_seq)
            gen_s.append(time.perf_counter() - t0)
        _, warm_s, self.warmup_error = self.run_op(-1)
        return gen_s, warm_s

    def run_op(self, i, tracer=None):
        """One operation; returns (check result, latency, error message)."""
        out_root = self.workdir / "ops"
        seed = self.op_seed0 + i
        rec = err = quality = None
        if tracer is not None:
            tracer.current_op = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            rec = self.wl.operate(self.cli, self.inputs, i, seed, str(out_root))
        except Exception:  # a failed operation is counted, not fatal
            err = traceback.format_exc()
        finally:
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if err is None:
            try:
                quality = self.wl.check(self.inputs, i, rec)
            except Exception:
                err = traceback.format_exc()
        shutil.rmtree(out_root, ignore_errors=True)
        if err is not None:
            print(f"operation {i} failed:\n{err}", file=sys.stderr)
        return quality, latency, err


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "elglm" / "__init__.py").is_file():
        print(f"no elglm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import elglm.cli as cli
    import_s = time.perf_counter() - t0
    if pathlib.Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"elglm was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    from tracer import Tracer
    from workloads import QUALITY_METRICS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    report_dir = ROOT / ".perfbench_out"
    report_dir.mkdir(exist_ok=True)
    try:
        runner = Runner(cli, wl, args.seed, workdir)
        gen_s, warm_s = runner.setup(SETUP_REPEATS)
        setup_s = import_s + statistics.median(gen_s) + warm_s

        tracer = Tracer() if args.trace else None
        ok, lat, lat_traced, failed, attempted = [], [], [], 0, 0
        busy_s = 0.0  # untraced operation time, failed operations included
        loop_start = time.perf_counter()
        i = 0
        min_ops = TRACE_COUNT_OPS if args.trace else 1
        while i < min_ops or time.perf_counter() - loop_start < args.seconds:
            order = (True, False) if i % 2 == 0 else (False, True)
            for traced in order if args.trace else (False,):
                quality, latency, err = runner.run_op(i, tracer if traced else None)
                attempted += 1
                busy_s += 0.0 if traced else latency
                if err is not None:
                    failed += 1
                elif traced:
                    lat_traced.append(latency)
                else:
                    ok.append((quality, latency))
                    lat.append(latency)
            i += 1
        loop_s = time.perf_counter() - loop_start
        if not ok or (args.trace and not lat_traced):
            print("no operation succeeded", file=sys.stderr)
            return 1

        quality, pooled_error = wl.summarize(ok)
        if pooled_error:
            print(f"pooled check failed: {pooled_error}", file=sys.stderr)
        if args.trace:
            metrics = tracer.summary(count_ops=range(TRACE_COUNT_OPS), all_ops=range(i))
            metrics.update({q: quality.get(q, 0.0) for q in QUALITY_METRICS})
            metrics["setup.import_s"] = import_s
            metrics["setup.simulate_s"] = statistics.median(gen_s)
            metrics["trace.overhead_s"] = statistics.median(lat_traced) - statistics.median(lat)
            tracer.write(report_dir / f"{tag}-spans.npz")
        else:
            metrics = {
                "setup_s": setup_s,
                "latency_p50_s": statistics.median(lat),
                "throughput_ops_per_s": len(lat) / busy_s,
                "peak_rss_mb": _peak_rss_mb(),
            }
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics do not match BENCHMARK.json: {set(metrics) ^ set(units)}")

        details = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": _environment(np, scipy, cli),
            "closed_loop_clients": 1, "operations": len(lat), "loop_s": loop_s,
            "latency_quartiles_s": _quartiles(lat),
            "latency_max_s": max(lat),
            "setup": {"import_s": import_s, "inputs_s": gen_s, "warmup_s": warm_s,
                      "warmup_failed": runner.warmup_error is not None},
            "quality": quality, "pooled_check": pooled_error,
        }
        correct = failed == 0 and pooled_error is None and runner.warmup_error is None
        result = {
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
        report = {**details, "latencies_s": lat, "traced_latencies_s": lat_traced, **result}
        (report_dir / f"{tag}.json").write_text(json.dumps(report, indent=2))
        print(json.dumps({"details": details}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
