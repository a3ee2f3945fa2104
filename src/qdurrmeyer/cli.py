"""Command-line surface: moment tables, convergence CSVs, verification reports.

Exit codes: 0 success, 2 usage, 3 numeric-tolerance failure, 4 route or
identity disagreement.  Output is byte-deterministic for a fixed config on
the exact backend: rationals serialize as `str(Fraction)` does (the "p/q"
form; integers above `_DECIMAL_BITS` bits take a faster route to the same
text), floats as shortest round-trip decimals, rows in fixed order.
Every cell is reproducible by calling the module operation the command
wraps (a moment table prints a route set of `moments`, the Stancu one with
the quoted m <= 2 table added); the CLI itself does no arithmetic.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .asymptotics import (
    ConvergenceRow,
    QSequence,
    convergence_grid,
    q_taylor_remainder,
)
from .errors import DomainError, SingularRemainderError
from .moments import central_routes, raw_routes, stancu_routes, stated_stancu_moment
from .polyalg import Polynomial
from .qcore import BUILTIN_NAMES, Backend, FunctionSpec, QContext, Scalar
from .verify import build_report

__all__ = ["main", "FUNCTION_NAMES", "build_function"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOLERANCE = 3
EXIT_DISAGREEMENT = 4

# closed registry: polynomial test functions plus the bounded builtins
_POLY_FUNCTIONS = {
    "one": (1,),
    "t": (0, 1),
    "t2": (0, 0, 1),
    "t3": (0, 0, 0, 1),
    "t4": (0, 0, 0, 0, 1),
}
FUNCTION_NAMES = tuple(_POLY_FUNCTIONS) + BUILTIN_NAMES


def build_function(name: str, backend: Backend) -> FunctionSpec | Polynomial:
    if name in _POLY_FUNCTIONS:
        return Polynomial([Scalar(c, backend) for c in _POLY_FUNCTIONS[name]], backend)
    if backend is not Backend.FLOAT:
        raise UsageError(f"function {name!r} needs --backend float")
    return FunctionSpec.builtin(name)


class UsageError(Exception):
    pass


def _parse_number(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse number {text!r}: {exc}") from None


def _to_scalar(value: Fraction, text: str, backend: Backend) -> Scalar:
    """`value`, read from `text`, on `backend`; a float past the double range is a usage error."""
    try:
        return Scalar(value, backend)
    except OverflowError:
        raise UsageError(f"{text!r} is outside the float range") from None


def _parse_scalar(text: str, backend: Backend) -> Scalar:
    return _to_scalar(_parse_number(text), text, backend)


def _parse_grid(text: str, backend: Backend) -> list[Scalar]:
    """Parse "a:b:steps" into `steps` evenly spaced points from a to b."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like a:b:steps, got {text!r}")
    a, b = _parse_number(parts[0]), _parse_number(parts[1])
    try:
        steps = int(parts[2])
    except ValueError:
        raise UsageError("grid step count must be an integer") from None
    if steps < 1:
        raise UsageError("grid needs at least one step")
    if steps > 1 and a == b:
        raise UsageError(f"grid {text!r} repeats its one point {steps} times")
    if steps == 1 and a != b:
        raise UsageError(f"grid {text!r} has one step, so it would drop its endpoint {parts[1]}")
    if steps == 1:
        values = [a]
    else:
        h = (b - a) / (steps - 1)
        values = [a + i * h for i in range(steps)]
    return [_to_scalar(v, text, backend) for v in values]


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"cannot parse n list {text!r}") from None
    if not values or values != sorted(set(values)):
        raise UsageError("n list must be strictly increasing")
    return values


# int -> str is quadratic in CPython 3.11.  Above _DECIMAL_BITS bits an int
# is split in binary and recombined through decimal's subquadratic
# multiplication, as CPython 3.12's _pylong.int_to_decimal_string does.  Every
# split falls at a width _DECIMAL_LEAF_BITS * 2^j, so all ints share one table
# of powers 2^width with one entry per j (sizes measured on 2-core x86-64,
# Python 3.11.7).
_DECIMAL_BITS = 8_000
_DECIMAL_LEAF_BITS = 512
_TWO_POWERS: dict[int, decimal.Decimal] = {}  # j -> 2^(_DECIMAL_LEAF_BITS * 2^j)


def _two_power(j: int) -> decimal.Decimal:
    """2^(_DECIMAL_LEAF_BITS * 2^j), the square of entry j - 1; needs an exact context."""
    power = _TWO_POWERS.get(j)
    if power is None:
        if j == 0:
            power = decimal.Decimal(2) ** _DECIMAL_LEAF_BITS
        else:
            half = _two_power(j - 1)
            power = half * half
        _TWO_POWERS[j] = power
    return power


def _to_decimal(k: int) -> decimal.Decimal:
    """k >= 0, split at the widest aligned width below its length; needs an exact context."""
    bits = k.bit_length()
    if bits <= _DECIMAL_LEAF_BITS:
        return decimal.Decimal(k)
    j = ((bits - 1) // _DECIMAL_LEAF_BITS).bit_length() - 1
    width = _DECIMAL_LEAF_BITS << j
    hi = k >> width
    return _to_decimal(hi) * _two_power(j) + _to_decimal(k - (hi << width))


# the lhs and abs_err of a row share their denominator, and so do the rows of
# a grid at one n: a few recent texts cover the repeats
@functools.lru_cache(maxsize=16)
def _big_int_text(i: int) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True  # every step must be exact
        text = str(_to_decimal(abs(i)))
    return "-" + text if i < 0 else text


def _int_text(i: int) -> str:
    """str(i), through decimal when i is large."""
    return str(i) if i.bit_length() <= _DECIMAL_BITS else _big_int_text(i)


def _scalar_cell(s: Scalar | None) -> str:
    """The cell text: str(Fraction) on the exact backend, repr(float) on float."""
    if s is None:
        return ""
    if not s.is_exact:
        return repr(s.value)
    num, den = s.as_ratio()
    return _int_text(num) if den == 1 else f"{_int_text(num)}/{_int_text(den)}"


def _polys_agree(a, b, backend: Backend, tol: float) -> bool:
    """Exact equality on the exact backend, coefficientwise tol on float."""
    if backend is Backend.EXACT:
        return a == b
    top = max(len(a.coeffs), len(b.coeffs))
    return all(
        abs(float(a.coefficient(i)) - float(b.coefficient(i))) <= tol
        for i in range(top)
    )


@dataclass
class RunConfig:
    """Validated options for one command invocation."""

    command: str
    backend: Backend
    fmt: str
    out: str | None
    options: dict = field(default_factory=dict)

    def dump(self) -> dict:
        flat = {"command": self.command, "backend": self.backend.value, "format": self.fmt}
        for key, value in self.options.items():
            if isinstance(value, QContext):
                continue  # the q scalar is stored alongside
            if isinstance(value, Scalar):
                flat[key] = _scalar_cell(value)
            elif isinstance(value, list):
                flat[key] = [
                    _scalar_cell(v) if isinstance(v, Scalar) else v for v in value
                ]
            elif isinstance(value, QSequence):
                flat[key] = value.label
            elif isinstance(value, Polynomial):  # the cell text of pinned JSON configs
                flat[key] = f"FunctionSpec(poly deg {value.degree})"
            elif isinstance(value, FunctionSpec):
                flat[key] = repr(value)
            elif value is None or isinstance(value, (int, float, str, bool)):
                flat[key] = value
            else:
                flat[key] = str(value)
        return flat


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {cfg.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(cfg: RunConfig, header: Sequence[str], rows: list[list[str]], verdict: str) -> None:
    if cfg.fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text({
            "config": cfg.dump(),
            "rows": [dict(zip(header, row)) for row in rows],
            "verdict": verdict,
        })
    _write(cfg, text)


# -- commands -----------------------------------------------------------------


# command -> (help, first m, route set of `moments`, the options it takes after (n, m, ctx))
_MOMENT_TABLES = {
    "moments": ("raw moments via all routes", 0, raw_routes, ("m_max",)),
    "central-moments": ("central moments via both routes", 1, central_routes, ()),
    "stancu-moments": ("Stancu moments: recursion, closed, direct", 0,
                       stancu_routes, ("alpha", "beta")),
}


def _cmd_moment_table(cfg: RunConfig) -> int:
    """One row per (m, route); a route agrees when it matches the set's reference."""
    _, first_m, route_set, keys = _MOMENT_TABLES[cfg.command]
    opts = cfg.options
    n, ctx, args = opts["n"], opts["ctx"], [opts[k] for k in keys]
    rows, all_agree = [], True
    for m in range(first_m, opts["m_max"] + 1):
        reference, routes = route_set(n, m, ctx, *args)
        if cfg.command == "stancu-moments" and m <= 2:  # the quoted table, after recursion
            routes.insert(1, ("closed", stated_stancu_moment(n, m, ctx, *args)))
        agree = all(
            _polys_agree(value, reference, cfg.backend, opts["tol"])
            for _, value in routes
        )
        all_agree &= agree
        for route, value in routes:
            rows.append(
                [
                    str(m),
                    route,
                    "|".join(_scalar_cell(c) for c in value.coeffs) or "0",
                    "true" if agree else "false",
                ]
            )
    verdict = "pass" if all_agree else "fail"
    _emit(cfg, ["m", "route", "coefficients", "agree"], rows, verdict)
    return EXIT_OK if all_agree else EXIT_DISAGREEMENT


def _trend_cell(row: ConvergenceRow) -> str:
    if row.err_decreased is None:
        return ""
    return "dec" if row.err_decreased else "inc"


def _cmd_voronovskaja(cfg: RunConfig) -> int:
    f = cfg.options["f"]
    seq = cfg.options["seq"]
    n_list = cfg.options["n_list"]
    alpha, beta = cfg.options.get("alpha"), cfg.options.get("beta")
    rtol, floor = cfg.options["rtol"], cfg.options["floor"]
    rows_out, worst = [], None
    grid = cfg.options["x_grid"]
    tables = convergence_grid(
        f, grid, seq, n_list, alpha, beta,
        tol=cfg.options.get("tol"), max_terms=cfg.options.get("max_terms"),
    )
    for x, table in zip(grid, tables):
        for row in table:
            rows_out.append(
                [
                    str(row.n),
                    _scalar_cell(row.q_n),
                    _scalar_cell(x),
                    _scalar_cell(row.lhs)
                    if row.error is None
                    else ("error:" + row.error).replace(",", ";"),
                    _scalar_cell(row.rhs_limit),
                    _scalar_cell(row.abs_err),
                    _trend_cell(row),
                ]
            )
        final = table[-1]
        if final.abs_err is None:
            err = math.inf  # outranks every numeric row; the first error row stays worst
        else:
            err = float(final.abs_err)
            if err <= max(rtol * abs(float(final.rhs_limit)), rtol * floor):
                continue
        if worst is None or err > worst[0]:
            worst = (err, x, final)
    verdict = "pass" if worst is None else "fail"
    _emit(cfg, ["n", "q_n", "x", "lhs", "rhs_limit", "abs_err", "trend"], rows_out, verdict)
    if worst is None:
        return EXIT_OK
    _, x, row = worst
    detail = f"error: {row.error}" if row.error is not None else (
        f"lhs~{float(row.lhs):.6g} rhs~{float(row.rhs_limit):.6g} abs_err~{float(row.abs_err):.6g}"
    )
    print(f"tolerance failure: worst offender x={_scalar_cell(x)} n={row.n} {detail}",
          file=sys.stderr)
    return EXIT_TOLERANCE


def _cmd_remainder(cfg: RunConfig) -> int:
    ctx = cfg.options["ctx"]
    f = cfg.options["f"]
    x = cfg.options["x"]
    steps = cfg.options["steps"]
    rows = []
    span = Scalar.one(x.backend) - x
    for i in range(1, steps + 1):
        # span * 2^-i rounds once, like span / 2^i, where a float 2^i would overflow
        t = x + span * ctx.scalar(Fraction(1, 2 ** i))
        if t == x:  # the float step fell below x's spacing: theta(x; x) = 0 is no approach value
            rows.append([str(i), _scalar_cell(t), "", "t-rounds-to-x"])
            continue
        try:
            theta = q_taylor_remainder(f, x, t, ctx)
            rows.append([str(i), _scalar_cell(t), _scalar_cell(theta), ""])
        except SingularRemainderError as exc:
            rows.append([str(i), _scalar_cell(t), "", f"singular:{exc}"])
    _emit(cfg, ["step", "t", "theta", "note"], rows, "pass")
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    report = build_report(n_max=cfg.options["n_max"])
    report["config"].update({"command": "verify", "format": "json"})
    _write(cfg, _json_text(report))
    return EXIT_OK if report["verdict"] == "pass" else EXIT_DISAGREEMENT


# -- argument parsing ----------------------------------------------------------

_Q_SEQUENCES = {
    "one-minus-inv-n": QSequence.one_minus_inv_n,
    "one-minus-inv-sqrt-n": QSequence.one_minus_inv_sqrt_n,
    "one-minus-inv-n-squared": lambda: QSequence.power_decay(2),
}


@functools.cache  # parse_args keeps no state between calls, so one parser serves them all
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdurrmeyer",
        description="q-Durrmeyer operator tables, limits, and verification reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, q_flag=True):
        p.add_argument("--backend", choices=["exact", "float"], default="exact")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", help="output path (default stdout)")
        if q_flag:
            p.add_argument("--q", default="1/2", help="deformation parameter, e.g. 1/2 or 0.5")

    for name, (help_text, *_) in _MOMENT_TABLES.items():
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument(
            "--tol", type=float, default=1e-12,
            help="route-agreement tolerance on the float backend",
        )
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m-max", type=int, default=4)
        if name == "stancu-moments":
            p.add_argument("--alpha", default="0")
            p.add_argument("--beta", default="0")

    p = sub.add_parser("voronovskaja", help="scaled-deviation convergence table")
    common(p, q_flag=False)
    p.add_argument("--f", choices=FUNCTION_NAMES, default="t2")
    p.add_argument("--x", help="single interior point, e.g. 0.3")
    p.add_argument("--x-grid", help="grid a:b:steps inside (0,1)")
    p.add_argument("--n-list", default="8,16,32,64,128,256,512")
    p.add_argument("--q-seq", choices=list(_Q_SEQUENCES), default="one-minus-inv-n")
    p.add_argument("--variant", choices=["plain", "stancu"], default="plain")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--rtol", type=float, default=0.05)
    p.add_argument("--floor", type=float, default=0.1)
    p.add_argument("--tol", type=float, help="Jackson series tolerance")
    p.add_argument("--max-terms", type=int)

    p = sub.add_parser("remainder", help="q-Taylor remainder on an approach grid")
    common(p)
    p.add_argument("--f", choices=FUNCTION_NAMES, default="t3")
    p.add_argument("--x", default="1/2")
    p.add_argument("--steps", type=int, default=10)

    p = sub.add_parser("verify", help="full invariant suite as a JSON report")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--out")
    return parser


def _require_finite(**values: float | None) -> None:
    """NaN slips past every comparison and inf disables a tolerance: refuse both."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")


def _build_config(args) -> RunConfig:
    backend = Backend(getattr(args, "backend", "exact"))
    cfg = RunConfig(
        command=args.command,
        backend=backend,
        fmt=getattr(args, "format", "json"),
        out=getattr(args, "out", None),
    )
    opts = cfg.options
    if args.command in (*_MOMENT_TABLES, "remainder"):
        q = _parse_scalar(args.q, backend)
        opts["ctx"] = QContext(q)
        opts["q"] = q
    if args.command in _MOMENT_TABLES:
        _require_finite(tol=args.tol)
        if args.tol <= 0:
            raise UsageError("tol must be positive")
        opts["tol"] = args.tol
        if args.n < 1:
            raise UsageError("n must be >= 1")
        if args.m_max < 0:
            raise UsageError("m-max must be >= 0")
        if args.command == "central-moments" and args.m_max < 1:
            raise UsageError("central moments start at m = 1")
        opts["n"], opts["m_max"] = args.n, args.m_max
    if args.command == "stancu-moments":
        alpha = _parse_scalar(args.alpha, backend)
        beta = _parse_scalar(args.beta, backend)
        opts["alpha"], opts["beta"] = alpha, beta
    if args.command == "voronovskaja":
        opts["f"] = build_function(args.f, backend)
        if args.x and args.x_grid:
            raise UsageError("give either --x or --x-grid, not both")
        if args.x_grid:
            grid = _parse_grid(args.x_grid, backend)
        else:
            grid = [_parse_scalar(args.x or "0.3", backend)]
        for x in grid:
            if not (0 < x.value < 1):
                raise UsageError("x grid must lie strictly inside (0, 1)")
        opts["x_grid"] = grid
        opts["n_list"] = _parse_n_list(args.n_list)
        opts["seq"] = _Q_SEQUENCES[args.q_seq]()
        if opts["seq"].exact is None and backend is not Backend.FLOAT:
            raise UsageError(f"{args.q_seq} needs --backend float")
        opts["variant"] = args.variant
        if args.variant == "stancu":
            if args.alpha is None or args.beta is None:
                raise UsageError("stancu variant needs --alpha and --beta")
            alpha = _parse_scalar(args.alpha, backend)
            beta = _parse_scalar(args.beta, backend)
            opts["alpha"], opts["beta"] = alpha, beta
        elif args.alpha is not None or args.beta is not None:
            raise UsageError("--alpha/--beta only apply to the stancu variant")
        _require_finite(rtol=args.rtol, floor=args.floor, tol=args.tol)
        if args.rtol <= 0 or args.floor < 0:
            raise UsageError("rtol must be positive and floor nonnegative")
        opts["rtol"], opts["floor"] = args.rtol, args.floor
        if args.tol is not None and args.tol <= 0:
            raise UsageError("tol must be positive")
        if args.max_terms is not None and args.max_terms < 1:
            raise UsageError("max-terms must be >= 1")
        opts["tol"], opts["max_terms"] = args.tol, args.max_terms
        opts["q_seq"] = args.q_seq
    if args.command == "remainder":
        opts["f"] = build_function(args.f, backend)
        x = _parse_scalar(args.x, backend)
        if not (0 < x.value < 1):
            raise UsageError("x must lie strictly inside (0, 1)")
        opts["x"] = x
        if args.steps < 1:
            raise UsageError("steps must be >= 1")
        opts["steps"] = args.steps
    if args.command == "verify":
        if args.n_max < 1:
            raise UsageError("n-max must be >= 1")
        opts["n_max"] = args.n_max
        cfg.fmt = "json"
    return cfg


_COMMANDS = {
    **dict.fromkeys(_MOMENT_TABLES, _cmd_moment_table),
    "voronovskaja": _cmd_voronovskaja,
    "remainder": _cmd_remainder,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
    except (UsageError, DomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[cfg.command](cfg)
    except (UsageError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
