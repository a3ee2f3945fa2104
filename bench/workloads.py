"""Seeded workload batches and the checks that judge their output.

A batch is a list of CLI invocations.  `build` draws only x, q and the grid
offset from the seed; the n sizes are fixed.  `Batch.prepare` computes the
exact references (outside every timed region), and `Batch.check` turns one
repetition's outputs into per-row verdicts.  Failures are counted per row,
never dropped: a crashed command, an unexpected exit code or a missing row
fails every row the command should have printed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import reference as ref

WORKLOADS = ("verify", "moments-cold", "sweep-exact", "blackbox-float")

# Row tolerance for the float black-box path, fixed before the first run.
# The table is read against a limit target of size O(1) with the CLI's
# acceptance rtol of 0.05, so an error of 1e-5 is far below what the table
# resolves.  Rows whose Jackson series converge are within 2e-7 of the
# certified reference at the seed commit, 50 times inside this bound; the
# rows that stop early are off by 1.5 to 62.
BLACKBOX_TOL = 1e-5

# CLI defaults behind the voronovskaja verdict (exit 0 or 3)
CLI_RTOL, CLI_FLOOR = 0.05, 0.1

SWEEP_N = (8, 16, 32, 64, 128, 256, 512, 1024)
SWEEP_N_DEFAULT_SEQ = (8, 16, 32, 64, 128, 256, 512)
BLACKBOX_N = (4, 8, 16, 32)
MOMENT_PROBE_X = Fraction(1, 3)


@dataclass
class Row:
    label: str
    ok: bool
    detail: str = ""
    # False when the only failed check is the accuracy of the float
    # black-box path, which the library does not certify yet: such a row
    # counts as failed but does not make the run incorrect
    gated: bool = True
    cmd: int = -1  # index of the command that printed the row


@dataclass
class Command:
    argv: list[str]
    expected_rows: int
    checker: Callable[["Command", str], list[Row]]
    expect_rc: Optional[int] = 0  # None: derived from the printed rows
    ref: object = None
    make_ref: Optional[Callable[[], object]] = None


@dataclass
class Batch:
    inputs: dict  # the values drawn from the seed, for the log
    commands: list[Command] = field(default_factory=list)

    def prepare(self) -> None:
        for cmd in self.commands:
            if cmd.make_ref is not None and cmd.ref is None:
                cmd.ref = cmd.make_ref()

    def check(self, rcs: list, outputs: list[str]) -> list[Row]:
        rows = []
        for i, (cmd, rc, text) in enumerate(zip(self.commands, rcs, outputs)):
            got = _check_command(cmd, rc, text)
            for row in got:
                row.label, row.cmd = f"cmd{i} {row.label}", i
            rows.extend(got)
        return rows


def _fail_all(cmd: Command, why: str) -> list[Row]:
    return [Row(f"row{j}", False, why) for j in range(cmd.expected_rows)]


def _check_command(cmd: Command, rc, text: str) -> list[Row]:
    if not isinstance(rc, int):
        return _fail_all(cmd, f"command raised: {rc}")
    if cmd.expect_rc is not None and rc != cmd.expect_rc:
        return _fail_all(cmd, f"exit code {rc}, expected {cmd.expect_rc}")
    try:
        rows = cmd.checker(cmd, text)
    except (ValueError, KeyError, ZeroDivisionError, json.JSONDecodeError) as exc:
        return _fail_all(cmd, f"unreadable output: {exc!r}")
    if cmd.expect_rc is None:
        want = _voronovskaja_rc(text)
        if rc != want:
            return _fail_all(cmd, f"exit code {rc} disagrees with the printed rows ({want})")
    missing = cmd.expected_rows - len(rows)
    rows.extend(Row(f"missing{j}", False, "row not printed") for j in range(missing))
    return rows


# -- verify -----------------------------------------------------------------------

VERIFY_ROWS = 29  # 15 mandatory checks + 14 transcription-audit entries


def _check_verify(cmd: Command, text: str) -> list[Row]:
    report = json.loads(text)
    verdict_ok = report["verdict"] == "pass"
    rows = []
    for entry in report["rows"]:
        if entry["mandatory"]:
            ok = entry["status"] == "pass" and verdict_ok
        else:
            ok = entry["status"] in ("match", "mismatch-documented")
        rows.append(Row(entry["name"], ok, "" if ok else f"status {entry['status']}"))
    return rows


def _build_verify(rng: random.Random) -> tuple[dict, list[Command]]:
    cmd = Command(["verify", "--n-max", "10"], VERIFY_ROWS, _check_verify)
    return {}, [cmd]


# -- moments-cold ---------------------------------------------------------------------


def _parse_poly(cell: str) -> list[Fraction]:
    return [Fraction(c) for c in cell.split("|")]


def _check_moment_table(cmd: Command, text: str) -> list[Row]:
    """Every agree flag true, and every route's polynomial equal at a probe x
    to the kernel-sum reference."""
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        m = int(rec["m"])
        value = ref.poly_eval(_parse_poly(rec["coefficients"]), MOMENT_PROBE_X)
        want = cmd.ref[m]
        ok = rec["agree"] == "true" and value == want
        detail = "" if ok else f"agree={rec['agree']} value {float(value)!r} vs reference {float(want)!r}"
        rows.append(Row(f"m={m} {rec['route']}", ok, detail))
    return rows


def _moment_refs(kind: str, n: int, q: Fraction, alpha=0, beta=0) -> Callable[[], dict]:
    def make() -> dict:
        x = MOMENT_PROBE_X
        out = {}
        for m in range(5):
            if kind == "raw":
                coeffs = [Fraction(0)] * m + [Fraction(1)]
            elif kind == "central":
                if m == 0:
                    continue
                coeffs = ref.q_central_factor(m, q, x)
            else:
                qn = ref.q_int(n, q)
                coeffs = ref.compose_affine(
                    [Fraction(0)] * m + [Fraction(1)], qn / (qn + beta), Fraction(alpha) / (qn + beta)
                )
            out[m] = ref.kernel_values(n, q, coeffs, [x])[0]
        return out

    return make


def _build_moments(rng: random.Random) -> tuple[dict, list[Command]]:
    # odd numerators keep both q in lowest terms over 16, so every seed
    # meets rationals of the same size class
    q_lo = Fraction(rng.choice((5, 7)), 16)
    q_hi = Fraction(rng.choice((9, 11, 13)), 16)
    commands = [
        Command(["moments", "--n", "32", "--q", str(q_lo)], 15, _check_moment_table,
                make_ref=_moment_refs("raw", 32, q_lo)),
        Command(["moments", "--n", "28", "--q", str(q_hi)], 15, _check_moment_table,
                make_ref=_moment_refs("raw", 28, q_hi)),
        Command(["central-moments", "--n", "32", "--q", str(q_hi)], 8, _check_moment_table,
                make_ref=_moment_refs("central", 32, q_hi)),
        Command(["stancu-moments", "--n", "24", "--alpha", "1", "--beta", "2", "--q", str(q_lo)],
                13, _check_moment_table, make_ref=_moment_refs("stancu", 24, q_lo, 1, 2)),
    ]
    return {"q_lo": str(q_lo), "q_hi": str(q_hi)}, commands


# -- voronovskaja tables ----------------------------------------------------------------


def _q_exact(seq: str, n: int) -> Fraction:
    return Fraction(n - 1, n) if seq == "one-minus-inv-n" else Fraction(n * n - 1, n * n)


def _q_float(seq: str, n: int) -> float:
    # the CLI's float definitions of the two sequences
    return 1.0 - 1.0 / n if seq == "one-minus-inv-n" else 1.0 - float(n) ** -2


def _grid(a: Fraction, b: Fraction, steps: int) -> list[Fraction]:
    h = (b - a) / (steps - 1)
    return [a + i * h for i in range(steps)]


_POLY_F = {"t2": 2, "t3": 3, "t4": 4}


def _poly_target(f: str, x: Fraction, alpha=None, beta=None) -> Fraction:
    m = _POLY_F[f]
    d1 = m * x ** (m - 1)
    d2 = m * (m - 1) * x ** (m - 2)
    first = 1 - 2 * x if alpha is None else 1 + alpha - (2 + beta) * x
    return first * d1 + x * (1 - x) * d2


def _voronovskaja_rc(text: str) -> int:
    """The CLI's verdict rule on the final row of each x: 0 pass, 3 fail."""
    last = {}
    for rec in csv.DictReader(io.StringIO(text)):
        last[rec["x"]] = rec
    for rec in last.values():
        if not rec["abs_err"]:
            return 3
        rhs, err = abs(float(Fraction(rec["rhs_limit"]))), float(Fraction(rec["abs_err"]))
        if err > max(CLI_RTOL * rhs, CLI_RTOL * CLI_FLOOR):
            return 3
    return 0


def _check_exact_table(cmd: Command, text: str) -> list[Row]:
    """Every cell equal to the recurrence reference, exactly."""
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        n, x = int(rec["n"]), Fraction(rec["x"])
        want = cmd.ref.get((n, x))
        label = f"n={n} x={x}"
        if want is None:
            rows.append(Row(label, False, "unexpected row"))
            continue
        q, lhs, rhs = want
        problems = []
        if Fraction(rec["q_n"]) != q:
            problems.append("q_n")
        if rec["lhs"].startswith("error:") or Fraction(rec["lhs"]) != lhs:
            problems.append("lhs")
        if Fraction(rec["rhs_limit"]) != rhs:
            problems.append("rhs_limit")
        if Fraction(rec["abs_err"]) != abs(lhs - rhs):
            problems.append("abs_err")
        rows.append(Row(label, not problems, "wrong " + ", ".join(problems) if problems else ""))
    return rows


def _sweep_refs(f: str, xs: list[Fraction], seq: str, n_list, alpha=None, beta=None):
    def make() -> dict:
        m = _POLY_F[f]
        out = {}
        for n in n_list:
            q = _q_exact(seq, n)
            moments = ref.recurrence_moments(n, m, q)
            coeffs = [Fraction(0)] * m + [Fraction(1)]
            if alpha is not None:
                qn = ref.q_int(n, q)
                coeffs = ref.compose_affine(coeffs, qn / (qn + beta), alpha / (qn + beta))
            for x in xs:
                image = ref.image_from_moments(moments, coeffs, x)
                lhs = ref.q_int(n, q) * (image - x ** m)
                out[(n, x)] = (q, lhs, _poly_target(f, x, alpha, beta))
        return out

    return make


def _build_sweep(rng: random.Random) -> tuple[dict, list[Command]]:
    x = Fraction(rng.randrange(9, 120, 2), 128)
    k = rng.randrange(1, 32, 2)
    a, b = Fraction(k, 128), Fraction(k + 96, 128)
    grid = _grid(a, b, 4)
    sq, dflt = "one-minus-inv-n-squared", "one-minus-inv-n"
    n2 = ",".join(map(str, SWEEP_N))
    n1 = ",".join(map(str, SWEEP_N_DEFAULT_SEQ))
    specs = [
        (["--f", "t4", "--x", str(x), "--q-seq", sq, "--n-list", n2],
         _sweep_refs("t4", [x], sq, SWEEP_N), 1),
        (["--f", "t2", "--x-grid", f"{a}:{b}:4", "--q-seq", sq, "--n-list", n2],
         _sweep_refs("t2", grid, sq, SWEEP_N), 4),
        (["--f", "t3", "--x", str(x), "--variant", "stancu", "--alpha", "1", "--beta", "2",
          "--q-seq", sq, "--n-list", n2],
         _sweep_refs("t3", [x], sq, SWEEP_N, Fraction(1), Fraction(2)), 1),
        # the default 1 - 1/n sequence drifts to a different limit: exit 3 by design
        (["--f", "t2", "--x", str(x), "--q-seq", dflt, "--n-list", n1],
         _sweep_refs("t2", [x], dflt, SWEEP_N_DEFAULT_SEQ), 1),
    ]
    commands = []
    for argv, make, n_x in specs:
        rows = n_x * (len(SWEEP_N_DEFAULT_SEQ) if dflt in argv else len(SWEEP_N))
        commands.append(Command(["voronovskaja"] + argv, rows, _check_exact_table,
                                expect_rc=None, make_ref=make))
    return {"x": str(x), "grid": f"{a}:{b}:4"}, commands


# -- blackbox-float ------------------------------------------------------------------------


def _check_blackbox(cmd: Command, text: str) -> list[Row]:
    """lhs within BLACKBOX_TOL of the certified reference; rhs and abs_err
    consistent with the float formulas."""
    f = cmd.argv[cmd.argv.index("--f") + 1]
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        n, x = int(rec["n"]), float(rec["x"])
        label = f"{f} {rec['q_n']} n={n} x={rec['x']}"
        want = cmd.ref.get((n, x))
        if want is None:
            rows.append(Row(label, False, "unexpected row"))
            continue
        q, lhs_ref, bound, rhs_ref = want
        if rec["lhs"].startswith("error:"):
            rows.append(Row(label, False, rec["lhs"]))
            continue
        lhs, rhs, err = float(rec["lhs"]), float(rec["rhs_limit"]), float(rec["abs_err"])
        problems = []
        if float(rec["q_n"]) != q:
            problems.append("q_n")
        if abs(rhs - rhs_ref) > 1e-12 * max(1.0, abs(rhs_ref)):
            problems.append("rhs_limit")
        if err != abs(lhs - rhs):
            problems.append("abs_err")
        diff = abs(lhs - lhs_ref)
        accurate = diff <= BLACKBOX_TOL + bound
        if not accurate:
            problems.append(f"lhs {lhs!r} vs certified {lhs_ref!r} (|diff| {diff:.3g} > {BLACKBOX_TOL:g})")
        rows.append(Row(label, not problems, "; ".join(problems), gated=accurate or len(problems) > 1))
    return rows


_DERIVATIVES = {
    "exp": (math.exp, math.exp),
    "sin": (math.cos, lambda t: -math.sin(t)),
}


def _blackbox_refs(f: str, seq: str, xs: list[float]):
    def make() -> dict:
        d1, d2 = _DERIVATIVES[f]
        out = {}
        exact_xs = [Fraction(x) for x in xs]  # the doubles the CLI evaluates at
        for n in BLACKBOX_N:
            q = _q_float(seq, n)
            certified = ref.certified_lhs(f, n, Fraction(q), exact_xs)
            for x, (lhs, bound) in zip(xs, certified):
                rhs = (1.0 - 2 * x) * d1(x) + x * (1.0 - x) * d2(x)
                out[(n, x)] = (q, float(lhs), float(bound), rhs)
        return out

    return make


def _build_blackbox(rng: random.Random) -> tuple[dict, list[Command]]:
    shift = rng.randrange(-40, 41)
    a, b = Fraction(200 + shift, 1000), Fraction(800 + shift, 1000)
    xs = [float(v) for v in _grid(a, b, 4)]
    n_list = ",".join(map(str, BLACKBOX_N))
    commands = []
    for f in ("exp", "sin"):
        for seq in ("one-minus-inv-n", "one-minus-inv-n-squared"):
            argv = ["voronovskaja", "--f", f, "--backend", "float", "--x-grid", f"{a}:{b}:4",
                    "--q-seq", seq, "--n-list", n_list]
            commands.append(Command(argv, len(xs) * len(BLACKBOX_N), _check_blackbox,
                                    expect_rc=None, make_ref=_blackbox_refs(f, seq, xs)))
    return {"grid": f"{a}:{b}:4"}, commands


_BATCHES = {
    "verify": _build_verify,
    "moments-cold": _build_moments,
    "sweep-exact": _build_sweep,
    "blackbox-float": _build_blackbox,
}


def build(name: str, seed: int) -> Batch:
    """The batch for `name`; the same seed gives the same argv lists."""
    inputs, commands = _BATCHES[name](random.Random(seed))
    return Batch(inputs, commands)
