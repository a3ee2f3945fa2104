"""Benchmark of the qdurrmeyer CLI: four workloads, fresh interpreter per repetition.

Usage (from the repository root):

    python3 bench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Workloads (see bench/meta.json for why each was chosen):

    verify          qdurrmeyer verify --n-max 10; ignores the seed
    moments-cold    moment tables at n = 24..32 for two seed-drawn q
    sweep-exact     exact voronovskaja tables up to n = 1024
    blackbox-float  float voronovskaja rows for exp and sin, n = 4..32

One closed loop: a single client runs one repetition at a time, each in a
fresh single-threaded interpreter (module-level caches keyed on contexts
would otherwise carry over), as often as fits in --seconds, at least three
times.  Every output row is checked against an exact reference computed
before timing starts; a row that fails its check counts as failed and is
named below.  With --trace 0 the last line carries the end-to-end metrics,
with --trace 1 the per-layer metrics of one extra traced repetition.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3
SETUP_PROBES = 12
DEADLINE_S = 170.0  # the whole run, traced repetition included

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "qcore.scalar_ops": "count",
    "qcore.qtable.calls": "count",
    "qcore.qtable.self_s": "s",
    "qcore.contexts": "count",
    "qcore.jackson.calls": "count",
    "qcore.jackson.nodes": "count",
    "qcore.jackson.self_s": "s",
    "polyalg.mul.calls": "count",
    "polyalg.mul.coeff_products": "count",
    "polyalg.mul.self_s": "s",
    "polyalg.eval.self_s": "s",
    "polyalg.compose_affine.self_s": "s",
    **{f"operators.{op}.{kind}": unit
       for op in ("apply_poly", "basis_polynomial", "bernstein_basis", "apply_fn", "stancu_apply")
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"moments.{route}.{kind}": unit
       for route in ("raw_brute", "raw_closed", "recurrence")
       for kind, unit in (("calls", "count"), ("misses", "count"), ("self_s", "s"))},
    "moments.cache_hit_ratio": "ratio",
    "moments.cache_entries": "count",
    "moments.central.self_s": "s",
    "moments.stancu.self_s": "s",
    "moments.audit.self_s": "s",
    "asymptotics.lhs.calls": "count",
    "asymptotics.lhs.self_s": "s",
    "asymptotics.table.calls": "count",
    "asymptotics.table.self_s": "s",
    "verify.report.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Spawns worker processes one at a time and collects their records."""

    def __init__(self, batch: workloads.Batch, work: Path, deadline: float):
        self.batch = batch
        self.work = work
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0
        self._verdicts: dict = {}  # (exit codes, digests) -> rows; equal bytes get equal verdicts

    def spawn(self, commands: list[list[str]], trace: bool) -> tuple[float, dict, Path]:
        """Run one worker; returns (spawn clock, its record, its output dir)."""
        self.count += 1
        out_dir = self.work / f"rep{self.count}"
        out_dir.mkdir(parents=True)
        job = out_dir / "job.json"
        job.write_text(json.dumps({"commands": commands, "out_dir": str(out_dir), "trace": trace}))
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before the next repetition")
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(job)],
                env=self.env, cwd=str(ROOT), capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("a repetition ran past the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return spawned, json.loads(proc.stdout.strip().splitlines()[-1]), out_dir

    def repetition(self, gen_s: float, trace: bool = False) -> dict:
        argvs = [cmd.argv for cmd in self.batch.commands]
        spawned, record, out_dir = self.spawn(argvs, trace)
        outputs = [(out_dir / f"{i}.out").read_bytes() for i in range(len(argvs))]
        if not trace:  # the traced repetition keeps its spans file
            shutil.rmtree(out_dir)
        digests = [hashlib.sha256(o).hexdigest() for o in outputs]
        key = json.dumps([record["rcs"], digests])
        if key not in self._verdicts:
            self._verdicts[key] = self.batch.check(record["rcs"], [o.decode("utf-8") for o in outputs])
        return {
            "setup_s": gen_s + record["ready"] - spawned,
            "wall_s": record["done"] - record["ready"],
            "peak_rss_mb": record["maxrss_kb"] / 1024.0,
            "rcs": record["rcs"],
            "digests": digests,
            "output_bytes": sum(len(o) for o in outputs),
            "rows": [dataclasses.replace(row) for row in self._verdicts[key]],
            "layers": record.get("layers"),
            "trace_notes": record.get("trace_notes", []),
        }

    def setup_probe(self, gen_s: float) -> float:
        spawned, record, out_dir = self.spawn([], False)
        shutil.rmtree(out_dir)
        return gen_s + record["ready"] - spawned


def _mark_digest_drift(reps: list[dict]) -> None:
    """A command whose bytes differ from the first repetition fails its rows."""
    first = reps[0]["digests"]
    for rep in reps[1:]:
        drifted = {i for i, (a, b) in enumerate(zip(first, rep["digests"])) if a != b}
        for row in rep["rows"]:
            if row.cmd in drifted:
                row.ok, row.gated = False, True
                row.detail = "output differs from the first repetition"


def measure(name: str, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """Run the workload and return {correct, attempted, failed, metrics}."""
    if not (SRC / "qdurrmeyer" / "cli.py").is_file():
        raise BenchError(f"no qdurrmeyer sources under {SRC}")
    deadline = time.perf_counter() + DEADLINE_S
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    t0 = time.perf_counter()
    batch = workloads.build(name, seed)
    gen_s = time.perf_counter() - t0
    runner = Runner(batch, work, deadline)
    runner.setup_probe(gen_s)  # warms the bytecode cache; users do not pay compilation per run
    t0 = time.perf_counter()
    batch.prepare()
    log(f"# {name} seed={seed} inputs={json.dumps(batch.inputs)} reference {time.perf_counter() - t0:.2f}s")

    reps = []
    started = time.perf_counter()
    # start another repetition only if the last one's length still fits
    while len(reps) < MIN_REPS or (
        time.perf_counter() - started + reps[-1]["wall_s"] + reps[-1]["setup_s"] <= seconds
    ):
        reps.append(runner.repetition(gen_s))
    setups = [r["setup_s"] for r in reps] + [runner.setup_probe(gen_s) for _ in range(SETUP_PROBES)]
    traced = runner.repetition(gen_s, trace=True) if trace else None
    all_reps = reps + ([traced] if traced else [])
    _mark_digest_drift(all_reps)

    attempted = sum(len(r["rows"]) for r in all_reps)
    failed = sum(1 for r in all_reps for row in r["rows"] if not row.ok)
    per_rep_rows = len(reps[0]["rows"])
    wall = statistics.median(r["wall_s"] for r in reps)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "rows_per_s": statistics.median(
            sum(row.ok for row in r["rows"]) / r["wall_s"] for r in reps
        ),
        "ok_frac": sum(row.ok for r in reps for row in r["rows"]) / sum(len(r["rows"]) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }

    log(f"# python {platform.python_version()} nproc {os.cpu_count()} reps {len(reps)} "
        f"rows/rep {per_rep_rows} setup samples {len(setups)}")
    for key, unit in END_TO_END.items():
        log(f"{key:<14}{e2e[key]:>14.6g} {unit}")
    log(f"{'failed_frac':<14}{failed / attempted:>14.6g} ratio  ({failed} of {attempted} rows)")
    log("# wall_s per rep: " + " ".join(f"{r['wall_s']:.4f}" for r in reps))
    for i, (cmd, rc, digest) in enumerate(zip(batch.commands, reps[0]["rcs"], reps[0]["digests"])):
        log(f"# cmd{i} rc={rc} sha256={digest} :: qdurrmeyer {' '.join(cmd.argv)}")
    failing = sorted({(row.label, row.detail, row.gated) for r in all_reps for row in r["rows"] if not row.ok})
    for label, detail, gated in failing:
        log(f"FAILED{'' if gated else ' (measured, not gated)'} {label}: {detail}")
    correct = not any(row.gated and not row.ok for r in all_reps for row in r["rows"])

    if trace:
        metrics = dict(traced["layers"])
        metrics["cli.output_bytes"] = traced["output_bytes"]
        metrics["trace.overhead_s"] = traced["wall_s"] - wall
        for key in PER_LAYER:
            log(f"{key:<34}{metrics[key]:>16.6g} {PER_LAYER[key]}")
        for note in traced["trace_notes"]:
            log(f"# trace note: {note}")
        log(f"# spans: {metrics['trace.spans']} in {work / f'rep{runner.count}' / 'spans.bin'}")
        chosen = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        chosen = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": chosen}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
