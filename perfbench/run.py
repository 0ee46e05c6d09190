#!/usr/bin/env python3
"""Closed-loop benchmark of the modinv CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload su2_classification --seed 1 --seconds 40 --trace 0

One client calls ``modinv.cli.main(argv)`` in this process for every case of
the workload's seeded case list, with stdout captured, and repeats whole
rounds of the list while another round still fits in ``--seconds``.  A case
is timed in CPU seconds of this process, scaled to a reference machine speed
by a fixed kernel timed right before it, and each case's median over the
rounds counts.  Every output is checked against ``reference.py``; checks are not
timed.  The last line of stdout is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics (from ``spans.py``) with ``--trace 1``.
Raw per-case records, the environment and the spans go to
``.perfbench-out/``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported; the setup probes inherit it

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import cases  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
# setup_s is the median of this many fresh interpreters, each importing
# modinv and building the case list.
SETUP_PROBES = 7
# Cases and spans are timed in CPU seconds of this process (user + system).
# modinv runs in one thread here, so on an idle core this is its wall time;
# unlike wall time, it leaves out the time the process waits for a core that
# other processes on a shared machine hold.
CLOCK = spans.CLOCK
# The speed of a shared machine drifts by up to half within minutes, in CPU
# time too, and whole runs are fast or slow together.  So every timed case,
# and every setup probe, also times a fixed kernel that mixes LAPACK and
# interpreter work as the cases do, and a time is reported at the reference
# speed: its CPU seconds times REFERENCE_KERNEL_S over the kernel's CPU
# seconds next to it.  REFERENCE_KERNEL_S is a fixed scale, close to the
# kernel's CPU time on the 2-core machine the README's figures come from.
REFERENCE_KERNEL_S = 0.012
KERNEL_MATRIX = np.random.default_rng(0).standard_normal((200, 150))


def kernel_seconds() -> float:
    """CPU seconds of the fixed reference kernel."""
    t0 = CLOCK()
    np.linalg.svd(KERNEL_MATRIX)
    sums = {}
    for i in range(40000):
        sums[i % 97] = sums.get(i % 97, 0) + i * i
    return CLOCK() - t0


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


def import_cli():
    """Import modinv.cli from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from modinv import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"modinv imported from {cli.__file__}, not from {src}")
    return cli


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of each probe, a fresh interpreter waited on to its end."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(argv, check=True, stdin=subprocess.DEVNULL,
                               stdout=subprocess.PIPE, text=True)
        times.append(at_reference_speed(*json.loads(probe.stdout)))
    return times


class Client:
    """Runs cases through the CLI, checks their outputs and keeps the records."""

    def __init__(self, cli):
        self.cli = cli
        self.refs = reference.References()
        self.records = []
        self.failures = {}
        self.errors = {}
        self.tracer = None

    def invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # garbage left by earlier cases and checks is not this case's cost
        kernel_s = kernel_seconds()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = CLOCK()
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed case, not a dead benchmark
                rc = f"{type(exc).__name__}: {exc}"
            seconds = CLOCK() - t0
        return seconds, kernel_s, rc, out.getvalue(), err.getvalue()

    def run_case(self, argv, label):
        if self.tracer is not None:
            self.tracer.case = label
        seconds, kernel_s, rc, out, err = self.invoke(argv)
        record = {"case": label, "argv": list(argv), "seconds": seconds,
                  "kernel_s": kernel_s, "rc": rc, "stdout_bytes": len(out.encode())}
        self.records.append(record)
        if rc != 0:
            self.failures.setdefault(" ".join(argv), f"rc={rc}: {err.strip()}")
            return record
        try:
            reference.check_case(argv, out, self.refs, read_file=read_file)
        except reference.CheckError as exc:
            self.errors.setdefault(" ".join(argv), str(exc))
        return record

    def run_round(self, case_list, r):
        return [self.run_case(argv, f"{r}:{i}") for i, argv in enumerate(case_list)]


def read_file(path):
    return Path(path).read_text()


def layer_metrics(tracer, traced, untraced) -> dict:
    metrics = {}
    for name, (self_s, calls) in tracer.self_times().items():
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    for name in spans.PEAK_LAYERS:
        metrics[f"{name}.peak_mb"] = (tracer.peak_mb[name], "MB")
    for name in spans.COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    nodes = tracer.counts["search.enumerate_invariants.nodes"]
    found = tracer.counts["search.enumerate_invariants.found"]
    metrics["search.enumerate_invariants.found_per_knode"] = (
        1000.0 * found / nodes if nodes else 0.0, "1/knode")
    metrics["cli.stdout_kb"] = (sum(r["stdout_bytes"] for r in traced) / 1024.0, "kB")
    traced_s = sum(r["seconds"] for r in traced)
    metrics["trace.sweep_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - sum(r["seconds"] for r in untraced), "s")
    return metrics


def end_to_end_metrics(rounds, setup) -> dict:
    """Each case counts once, with its median over the rounds, at the reference speed."""
    per_case = defaultdict(list)
    for r in itertools.chain.from_iterable(rounds):
        per_case[tuple(r["argv"])].append(at_reference_speed(r["seconds"], r["kernel_s"]))
    case_s = [statistics.median(v) for v in per_case.values()]
    return {
        "sweep_s": (sum(case_s), "s"),
        "case_p50_s": (statistics.median(case_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def measure(client, case_list, seconds: float) -> list[list[dict]]:
    """Whole rounds, while the last round's wall time still fits in ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(client.run_round(case_list, len(rounds)))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import modinv and build the case list, then exit (setup probe)")
    args = parser.parse_args(argv)

    cli = import_cli()  # exits non-zero, printing no result, where there is no program
    case_list = cases.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        # CPU seconds since this process started, then the kernel, warmed once
        setup_s = CLOCK()
        kernel_seconds()
        print(json.dumps([setup_s, kernel_seconds()]))
        return 0

    OUT.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True), file=sys.stderr)
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)

    client = Client(cli)
    with tempfile.TemporaryDirectory(dir=OUT) as dotdir:
        os.environ["MODINV_OUTDIR"] = dotdir
        client.run_case(cases.WARMUP[args.workload], "warmup")
        client.records.clear()
        if args.trace:
            untraced = client.run_round(case_list, 0)
            tracer = client.tracer = spans.Tracer()
            tracer.install()
            tracemalloc.start()
            try:
                traced = client.run_round(case_list, 1)
            finally:
                tracemalloc.stop()
                tracer.uninstall()
                client.tracer = None
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = layer_metrics(tracer, traced, untraced)
        else:
            metrics = end_to_end_metrics(measure(client, case_list, args.seconds), setup)

    failed = [r for r in client.records if r["rc"] != 0]
    for case, reason in client.failures.items():
        known = cases.KNOWN_FAULTS.get(tuple(case.split()), "unexpected failure")
        print(f"failed: {case} ({reason}); {known}", file=sys.stderr)
    for case, reason in client.errors.items():
        print(f"WRONG OUTPUT: {case}: {reason}", file=sys.stderr)
    result = {
        "correct": not client.errors,
        "attempted": len(client.records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "environment": env, "setup_probes_s": setup,
           "cases": client.records, "failures": client.failures, "errors": client.errors,
           "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
