#!/usr/bin/env python3
"""svdn benchmark: CLI workloads driven in-process as a closed loop.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
that checkout (never from an installed copy), and ``svdn.cli.main`` is
called with one client: each command starts when the previous one has
returned.  The first command after set-up is a warm-up whose outputs
become the reference; the commands after it are timed until
``--seconds`` have passed (at least ``MIN_MEASURED`` of them) and must
reproduce the reference byte for byte.  The reference itself is checked
against ``oracle.py``, an implementation that shares no code with svdn.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` untraced and traced commands alternate and it holds
the per-layer metrics of the traced ones, plus the tracing overhead.
The line before it records the environment, the sample counts and the
result quality.  Scratch files live in ``.bench_work/`` and are removed
on exit; traced runs leave their spans in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import oracle
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
MIN_MEASURED = 5
SETUP_REPEATS = 5
MATCH_TOL = 1e-12
LOOP_CAP_S = 90  # stop measuring here even when too few commands succeeded

# The stopping rule ends training when the correlation score plateaus,
# which takes 7 to 15 iterations depending on the seed.  Pinning the
# iteration count (epsilon_s so small that the rule never fires) makes
# every seed do the same work, so timings compare across seeds.  Seven
# is the count the default config converges at on its own seed.
PINNED_DEFAULT = ("--max-rri", "7", "--epsilon-s", "1e-12")
WIDE = (
    "--hidden-dims", "256,256", "--eigen-dim", "128", "--batch-size", "128",
    "--step0-epochs", "10", "--restraint-epochs", "5", "--relaxation-epochs", "5",
    "--max-rri", "4", "--epsilon-s", "1e-12",
)

# Counters derived from array sizes rather than measured (see tracer.py).
COMPUTED = ("gflops", "flop_per_byte", "out_mb")


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics, with their units,
    that this script reports.  A per-layer metric is named
    "<span>.<stat>", "<layer>.self_s" or one of the special names of
    per_layer_metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class CheckFailed(Exception):
    """A command's outputs are missing, malformed or wrong."""


def sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def read_csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def trained_items(out: Path, rri_iters: int, n_train: int) -> int:
    """Training rows processed by one train command: rows times epochs,
    with the epoch counts taken from the command's manifest."""
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    epochs = cfg["step0_epochs"] + rri_iters * (cfg["restraint_epochs"] + cfg["relaxation_epochs"])
    return n_train * epochs


class TrainWorkload:
    """``svdn train`` on a generated dataset.  Output: trace.csv and
    ckpt_final.svdn; quality: the final trace record."""

    items_name = "samples_per_s"

    def __init__(self, gen_flags: tuple, train_flags: tuple):
        self.gen_flags, self.train_flags = gen_flags, train_flags

    def prepare(self, bench, d: Path, data_seed: int, schedule_seed: int) -> dict:
        bench.execute(["gen", "--out", str(d / "data"), "--seed", str(data_seed), *self.gen_flags])
        return {"dataset": d / "data" / "dataset.csv", "schedule_seed": schedule_seed}

    setup_artifacts = ("data/dataset.csv",)

    def argv(self, inputs: dict, out: Path) -> list[str]:
        return ["train", "--out", str(out), "--dataset", str(inputs["dataset"]),
                "--seed", str(inputs["schedule_seed"]), *self.train_flags]

    def outputs(self, out: Path) -> tuple[str, dict]:
        trace, ckpt = out / "trace.csv", out / "ckpt_final.svdn"
        try:
            rows = read_csv_rows(trace)
            last = dict(zip(rows[0], rows[-1]))
            quality = {"rri_iters": int(last["rri_index"]), "rank1": float(last["rank1"]), "map": float(last["map"])}
            return sha256(trace, ckpt), quality
        except (OSError, KeyError, ValueError, IndexError) as exc:
            raise CheckFailed(f"train outputs unreadable: {exc!r}") from None

    def verify(self, oracle, inputs: dict, out: Path, quality: dict) -> tuple[int, str | None]:
        """Re-score the final checkpoint on the dataset's query/gallery
        split; returns the command's work items and an error, if any."""
        splits = oracle.read_dataset(inputs["dataset"])
        items = trained_items(out, quality["rri_iters"], splits["train"].features.shape[0])
        layers = oracle.read_checkpoint(out / "ckpt_final.svdn")
        feature = json.loads((out / "manifest.json").read_text())["config"]["feature"]
        return items, compare_scores(oracle, layers, splits, feature, quality)


class RetrievalWorkload:
    """``svdn eval`` of a trained checkpoint on a large generated dataset.
    Output: report.csv; quality: its rank-1 and mAP."""

    items_name = "queries_per_s"
    setup_artifacts = ("small/dataset.csv", "ckpt/trace.csv", "ckpt/ckpt_final.svdn", "big/dataset.csv")

    def prepare(self, bench, d: Path, data_seed: int, schedule_seed: int) -> dict:
        bench.execute(["gen", "--out", str(d / "small"), "--seed", str(data_seed)])
        bench.execute(["train", "--out", str(d / "ckpt"), "--dataset", str(d / "small" / "dataset.csv"),
                       "--seed", str(schedule_seed), *PINNED_DEFAULT])
        bench.execute(["gen", "--out", str(d / "big"), "--ids", "1000", "--seed", str(data_seed)])
        return {"dataset": d / "big" / "dataset.csv", "ckpt": d / "ckpt" / "ckpt_final.svdn",
                "schedule_seed": schedule_seed}

    def argv(self, inputs: dict, out: Path) -> list[str]:
        return ["eval", "--out", str(out), "--dataset", str(inputs["dataset"]), "--ckpt", str(inputs["ckpt"]),
                "--seed", str(inputs["schedule_seed"])]

    def outputs(self, out: Path) -> tuple[str, dict]:
        report = out / "report.csv"
        try:
            values = dict(read_csv_rows(report)[1:])
            quality = {"rank1": float(values["rank1"]), "map": float(values["map"]),
                       "queries": int(values["valid_queries"]) + int(values["excluded_queries"])}
            return sha256(report), quality
        except (OSError, KeyError, ValueError) as exc:
            raise CheckFailed(f"eval outputs unreadable: {exc!r}") from None

    def verify(self, oracle, inputs: dict, out: Path, quality: dict) -> tuple[int, str | None]:
        splits = oracle.read_dataset(inputs["dataset"])
        layers = oracle.read_checkpoint(inputs["ckpt"])
        feature = json.loads((out / "manifest.json").read_text())["config"]["feature"]
        return quality["queries"], compare_scores(oracle, layers, splits, feature, quality)


def compare_scores(oracle, layers, splits, feature: str, quality: dict) -> str | None:
    query, gallery = splits["query"], splits["gallery"]
    query.features = oracle.retrieval_features(layers, query.features, feature)
    gallery.features = oracle.retrieval_features(layers, gallery.features, feature)
    rank1, mean_ap, _ = oracle.brute_force_scores(query, gallery)
    if abs(rank1 - quality["rank1"]) > MATCH_TOL or abs(mean_ap - quality["map"]) > MATCH_TOL:
        return (f"brute-force scorer disagrees: rank1 {rank1!r} vs {quality['rank1']!r}, "
                f"map {mean_ap!r} vs {quality['map']!r}")
    return None


WORKLOADS = {
    # The paper's experiment at its default size; small-batch SGD bound by per-step overhead.
    "train_default": TrainWorkload((), PINNED_DEFAULT),
    # Ranking, scoring and the distance kernel on 2000 queries x 10000 gallery rows.
    "retrieval_large": RetrievalWorkload(),
    # The same train path in the GEMM-bound regime, with retrieval on 256-d features.
    "train_wide": TrainWorkload(("--ids", "128", "--samples", "8", "--dim", "32"), WIDE),
}


def fresh_import(src: Path) -> None:
    """Import svdn.cli in a new interpreter, as a CLI user's start-up does."""
    proc = subprocess.run([sys.executable, "-B", "-c", "import svdn.cli"], env=dict(os.environ, PYTHONPATH=str(src)),
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60)
    if proc.returncode != 0:
        raise CheckFailed(f"import svdn.cli failed: {proc.stderr[-400:]}")


class Bench:
    """Runs CLI commands in-process and counts attempts and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, argv: list[str], tracer=None) -> float:
        """One command; returns its wall time or raises CheckFailed."""
        gc.collect()
        self.attempted += 1
        log = io.StringIO()
        with redirect_stdout(log), redirect_stderr(log):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                rc = repr(exc)
            elapsed = time.perf_counter() - start
        if rc != 0:
            raise CheckFailed(f"svdn {argv[0]} returned {rc!r}: {log.getvalue()[-400:]}")
        return elapsed


def environment() -> dict:
    def read(path: str) -> str | None:
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    quota = read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        q, p = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = f"{q} {p}" if q is not None else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cgroup_cpu_quota": quota,
    }


def cpu_ticks() -> list[int] | None:
    """The machine-wide CPU time counters of /proc/stat (steal is 8th)."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else None


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer_metrics(names: list[str], summary: dict, overhead: float, quality: dict) -> dict:
    commands = list(summary.values())

    def median_of(get) -> float:
        return statistics.median(get(c) for c in commands) if commands else 0.0

    def entry(c, span):
        return c["names"].get(span, {"calls": 0, "self_s": 0.0, "durations": [], "counters": {}})

    def totals(span, key):
        return sum(entry(c, span)["counters"].get(key, 0) for c in commands)

    values = {
        "trace_overhead": overhead,
        "evaluation.map": quality["map"],
        "evaluation.rank1": quality["rank1"],
        "trainer.rri_iters": median_of(lambda c: entry(c, "trainer.run_rri")["counters"].get("rri_iters", 0)),
        "trainer.sgd_steps": median_of(lambda c: entry(c, "network.sgd_step")["calls"]),
    }
    for name in names:
        if name in values:
            continue
        span, stat = name.rsplit(".", 1)
        if "." not in span and stat == "self_s":
            values[name] = median_of(lambda c: c["layers"].get(span, 0.0))
        elif stat in ("calls", "self_s"):
            values[name] = median_of(lambda c: entry(c, span)[stat])
        elif stat in ("p50_us", "p99_us"):
            durations = [d for c in commands for d in entry(c, span)["durations"]]
            values[name] = 1e6 * percentile(durations, 50 if stat == "p50_us" else 99)
        elif stat == "gflops":
            seconds = sum(sum(entry(c, span)["durations"]) for c in commands)
            values[name] = totals(span, "flops") / seconds / 1e9 if seconds else 0.0
        elif stat == "flop_per_byte":
            moved = totals(span, "bytes")
            values[name] = totals(span, "flops") / moved if moved else 0.0
        elif stat == "bytes":
            values[name] = median_of(lambda c: entry(c, span)["counters"].get("bytes", 0))
        elif stat == "out_mb":
            values[name] = max((entry(c, span)["counters"].get("peak_out_bytes", 0) for c in commands), default=0) / 2**20
        else:
            raise KeyError(name)
    return values


def result_line(correct: bool, attempted: int, failed: int, values: dict, metrics: list[dict]) -> str:
    """The last stdout line.  A run that stopped early has no values; its
    metrics read 0."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]] if values else 0.0, "unit": m["unit"]} for m in metrics},
    })


def run(args, cli, work: Path) -> tuple[dict, str]:
    workload = WORKLOADS[args.workload]
    bench = Bench(cli)
    data_seed, schedule_seed = (int(s) for s in np.random.SeedSequence(args.seed).generate_state(2) % 2**31)
    details = {"workload": args.workload, "seed": args.seed, "data_seed": data_seed,
               "schedule_seed": schedule_seed, "trace": args.trace, "environment": environment()}
    metrics = load_spec()["per_layer" if args.trace else "end_to_end"]
    failed = 0

    def finish(values: dict) -> tuple[dict, str]:
        details.update(attempted=bench.attempted, failed=failed, error_rate=failed / max(bench.attempted, 1),
                       failures=bench.failures[:10])
        correct = failed == 0 and not bench.failures
        return details, result_line(correct, max(bench.attempted, 1), failed, values, metrics)

    # Set-up, repeated: a fresh interpreter's import plus the set-up
    # commands.  Every repeat must reproduce the first one's files.
    rep_times, inputs, reference_files = [], None, None
    for rep in range(SETUP_REPEATS):
        d = work / f"setup{rep}"
        try:
            start = time.perf_counter()
            fresh_import(ROOT / "src")
            rep_inputs = workload.prepare(bench, d, data_seed, schedule_seed)
            rep_times.append(time.perf_counter() - start)
        except CheckFailed as exc:
            bench.failures.append(str(exc))
            failed += 1
            return finish({})
        files = sha256(*(d / rel for rel in workload.setup_artifacts))
        if inputs is None:
            inputs, reference_files = rep_inputs, files
        else:
            if files != reference_files:
                failed += 1
                bench.failures.append(f"set-up repeat {rep} produced different files")
            shutil.rmtree(d)
    details["setup_repeat_s"] = rep_times

    # Warm-up command: its outputs are the reference.
    out = work / "out"
    try:
        warmup_s = bench.execute(workload.argv(inputs, out))
        reference, quality = workload.outputs(out)
    except CheckFailed as exc:
        bench.failures.append(str(exc))
        failed += 1
        return finish({})
    ref_out = work / "reference"
    out.rename(ref_out)

    tracer = tracing.Tracer()
    untraced, traced, digests, missing = [], [], [], []
    needed = MIN_MEASURED * (2 if args.trace else 1)
    loop_start, ticks = time.perf_counter(), cpu_ticks()

    def done() -> bool:
        spent = time.perf_counter() - loop_start
        return spent >= args.seconds and (len(untraced) + len(traced) >= needed or spent >= LOOP_CAP_S)

    i = 0
    while not done():
        use_trace = bool(args.trace) and i % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        tracer.command = i
        try:
            if use_trace:
                with tracing.installed(tracer) as missing:
                    elapsed = bench.execute(workload.argv(inputs, out), tracer)
            else:
                elapsed = bench.execute(workload.argv(inputs, out))
            digest, _ = workload.outputs(out)
            digests.append(digest)
            if digest != reference:
                raise CheckFailed(f"command {i} outputs differ from the warm-up's")
            (traced if use_trace else untraced).append(elapsed)
        except CheckFailed as exc:
            bench.failures.append(str(exc))
            failed += 1
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details["steal_share"] = steal_share(ticks, cpu_ticks())

    try:
        items, error = workload.verify(oracle, inputs, ref_out, quality)
    except (OSError, ValueError, KeyError, IndexError, struct.error) as exc:
        items, error = 0, f"oracle could not read the outputs: {exc!r}"
    if error is not None:
        bench.failures.append(error)
        failed += 1 + digests.count(reference)  # the warm-up and every command that matched it

    op_s = statistics.median(untraced) if untraced else 0.0
    details.update(
        quality=quality, items_per_command=items, warmup_s=warmup_s, measured=len(untraced),
        op_s_samples=untraced, traced_op_s_samples=traced, missing_trace_targets=missing,
        computed_counters=[m["name"] for m in metrics if m["name"].rsplit(".", 1)[-1] in COMPUTED],
    )
    details[workload.items_name] = items / op_s if op_s else 0.0
    if args.trace:
        overhead = statistics.median(traced) / op_s if traced and op_s else 0.0
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        details["spans"] = str(spans_path.relative_to(ROOT))
        names = [m["name"] for m in metrics]
        return finish(per_layer_metrics(names, tracing.summarize(tracer), overhead, quality))
    return finish({
        "setup_s": statistics.median(rep_times),
        "op_s": op_s,
        "items_per_s": items / op_s if op_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - failed / bench.attempted,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "svdn" / "cli.py").is_file():
        print(f"error: {src / 'svdn'} not found; run from a checkout of the svdn repository", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave the checkout's source tree as it was
    sys.path.insert(0, str(src))
    cli = importlib.import_module("svdn.cli")
    if Path(cli.__file__).resolve().parent != (src / "svdn").resolve():
        print(f"error: svdn imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        details, line = run(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"details": details}))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
