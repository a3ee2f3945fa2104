"""Self-tests of the benchmark.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import reference as ref
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
sys.set_int_max_str_digits(0)

COUNT_KEYS = ("qcore.scalar_ops", "qcore.jackson.nodes", "polyalg.mul.coeff_products")


def _sliced(name: str, seed: int, keep: list[int]) -> workloads.Batch:
    batch = workloads.build(name, seed)
    batch.commands = [batch.commands[i] for i in keep]
    batch.prepare()
    return batch


@pytest.fixture
def runner_for(tmp_path):
    def make(batch):
        work = run.WORK / f"selftest-{tmp_path.name}"
        shutil.rmtree(work, ignore_errors=True)
        return run.Runner(batch, work, time.perf_counter() + 300)

    yield make
    shutil.rmtree(run.WORK / f"selftest-{tmp_path.name}", ignore_errors=True)


# -- inputs and references --------------------------------------------------------


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 11), workloads.build(name, 11)
        assert [c.argv for c in a.commands] == [c.argv for c in b.commands]
    assert [c.argv for c in workloads.build("verify", 1).commands] == [
        c.argv for c in workloads.build("verify", 2).commands
    ]
    drawn = {tuple(workloads.build("sweep-exact", s).commands[0].argv) for s in range(8)}
    assert len(drawn) > 1


def test_kernel_reference_matches_library_brute_route():
    from qdurrmeyer import QContext, Scalar, raw_moment_brute

    q = Fraction(5, 16)
    ctx = QContext.exact(q)
    xs = [Fraction(1, 3), Fraction(5, 7)]
    for n in (3, 8):
        for m in range(6):
            lib = [raw_moment_brute(n, m, ctx).eval(Scalar.exact(x)).value for x in xs]
            assert ref.kernel_values(n, q, [Fraction(0)] * m + [Fraction(1)], xs) == lib
            if n > m + 2:
                rec = ref.recurrence_moments(n, m, q)[m]
                assert [ref.poly_eval(rec, x) for x in xs] == lib


def _blackbox_csv(cmd: workloads.Command, perturb=None) -> str:
    """CLI-shaped output whose lhs cells are the certified reference values."""
    lines = ["n,q_n,x,lhs,rhs_limit,abs_err,trend"]
    for (n, x), (q, lhs, _, rhs) in sorted(cmd.ref.items()):
        if (n, x) == perturb:
            lhs += 1e-4
        lines.append(f"{n},{q!r},{x!r},{lhs!r},{rhs!r},{abs(lhs - rhs)!r},")
    return "\n".join(lines) + "\n"


def test_reference_check_flags_a_perturbed_row():
    batch = _sliced("blackbox-float", 5, [1])
    cmd = batch.commands[0]
    rc = workloads._voronovskaja_rc(_blackbox_csv(cmd))
    rows = batch.check([rc], [_blackbox_csv(cmd)])
    assert len(rows) == cmd.expected_rows and all(r.ok for r in rows)

    target = sorted(cmd.ref)[5]
    rows = batch.check([rc], [_blackbox_csv(cmd, perturb=target)])
    bad = [r for r in rows if not r.ok]
    assert len(bad) == 1 and f"n={target[0]} " in bad[0].label
    assert not bad[0].gated  # accuracy only: counted, and named, but not gated


def test_exact_check_flags_a_perturbed_cell_and_a_missing_row():
    batch = _sliced("sweep-exact", 5, [0])
    cmd = batch.commands[0]
    lines = ["n,q_n,x,lhs,rhs_limit,abs_err,trend"]
    for (n, x), (q, lhs, rhs) in sorted(cmd.ref.items()):
        lines.append(f"{n},{q},{x},{lhs},{rhs},{abs(lhs - rhs)},")
    good = "\n".join(lines) + "\n"
    rc = workloads._voronovskaja_rc(good)
    assert all(r.ok for r in batch.check([rc], [good]))

    n, x = sorted(cmd.ref)[2]
    q, lhs, rhs = cmd.ref[(n, x)]
    bumped = lhs + Fraction(1, 10 ** 30)
    text = good.replace(f"{n},{q},{x},{lhs},{rhs},{abs(lhs - rhs)},",
                        f"{n},{q},{x},{bumped},{rhs},{abs(bumped - rhs)},")
    rows = batch.check([rc], [text])
    assert [r.ok for r in rows].count(False) == 1 and all(r.gated for r in rows)

    truncated = "\n".join(lines[:-1]) + "\n"
    rows = batch.check([workloads._voronovskaja_rc(truncated)], [truncated])
    assert len(rows) == cmd.expected_rows and [r.ok for r in rows].count(False) == 1
    assert not any(r.ok for r in batch.check(["exception: boom"], [""]))


# -- tracing ------------------------------------------------------------------------


def test_install_and_uninstall_restore_every_binding():
    import qdurrmeyer.cli  # noqa: F401  (loads every module of the package)

    def bindings():
        return {(name, attr): value
                for name, mod in sys.modules.items() if name.startswith("qdurrmeyer")
                for attr, value in vars(mod).items() if callable(value)} | {
            (cls.__name__, attr): value
            for cls in (sys.modules["qdurrmeyer.qcore"].Scalar,
                        sys.modules["qdurrmeyer.qcore"].QContext,
                        sys.modules["qdurrmeyer.polyalg"].Polynomial)
            for attr, value in vars(cls).items()}

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    during = bindings()
    tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # aliases and re-imports are all wrapped
    for key in (("Scalar", "__radd__"), ("Scalar", "__rmul__"), ("Polynomial", "__call__"),
                ("qdurrmeyer.cli", "raw_moment_brute"), ("qdurrmeyer.verify", "raw_moment_brute"),
                ("qdurrmeyer.asymptotics", "raw_moment_brute"), ("qdurrmeyer.cli", "main")):
        assert during[key] is not before[key], key


def test_traced_counts_repeat_and_spans_give_the_self_times(runner_for):
    batch = _sliced("moments-cold", 3, [3])  # stancu-moments: mul, caches, compose_affine
    batch.commands += _sliced("blackbox-float", 3, [0]).commands  # the Jackson path
    runner = runner_for(batch)
    first = runner.repetition(0.0, trace=True)
    second = runner.repetition(0.0, trace=True)
    assert all(r.ok or not r.gated for r in first["rows"] + second["rows"])
    assert first["digests"] == second["digests"]
    keys = [k for k in first["layers"] if k.endswith((".calls", ".misses")) or k in COUNT_KEYS]
    assert {k: first["layers"][k] for k in keys} == {k: second["layers"][k] for k in keys}
    for key in ("qcore.jackson.nodes", "polyalg.mul.coeff_products", "moments.raw_brute.misses",
                "operators.stancu_apply.calls", "qcore.scalar_ops"):
        assert first["layers"][key] > 0, key

    layers, spans = tracing.read_spans(runner.work / f"rep{runner.count}" / "spans.bin")
    assert len(spans) == second["layers"]["trace.spans"]
    child = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(layers, 0.0)
    for i, (layer, start, end, _, _) in enumerate(spans):
        self_s[layer] += end - start - child[i]
    for layer in layers:
        assert self_s[layer] == pytest.approx(second["layers"][f"{layer}.self_s"], abs=1e-6)


def test_untraced_timings_unaffected_after_traced_run(runner_for):
    runner = runner_for(_sliced("moments-cold", 4, [0]))
    runner.setup_probe(0.0)
    before = [runner.repetition(0.0)["wall_s"] for _ in range(3)]
    traced = runner.repetition(0.0, trace=True)
    after = [runner.repetition(0.0) for _ in range(3)]
    assert traced["layers"] and all(rep["layers"] is None for rep in after)
    # each repetition is a fresh interpreter, so nothing of the trace survives
    assert min(r["wall_s"] for r in after) < 1.5 * max(before)


# -- the command line -----------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
