"""Every mandatory `verify` entry can fail, and names the case that broke it."""

from fractions import Fraction

import pytest

from qdurrmeyer import Backend, Polynomial, QContext, Scalar, build_report, verify
from qdurrmeyer.errors import SingularRemainderError
from qdurrmeyer.moments import ReportRow

ONE = Scalar.exact(1)
POLY_ONE = Polynomial.one(Backend.EXACT)


def _q(ctx) -> Fraction:
    return ctx.q.value


def _bump(hit, bump):
    """Perturb a function so that it returns bump(value) on the arguments hit selects."""

    def perturb(original):
        def perturbed(*args):
            value = original(*args)
            return bump(value) if hit(*args) else value

        return perturbed

    return perturb


def _silent_singularity(original):
    """q_taylor_remainder that returns 0 instead of raising at q = 1/2."""

    def perturbed(f, x, t, ctx):
        try:
            return original(f, x, t, ctx)
        except SingularRemainderError:
            if _q(ctx) != Fraction(1, 2):
                raise
            return ctx.zero

    return perturbed


def _bump_scalar(v):
    return v + ONE


def _bump_poly(v):
    return v + POLY_ONE


def _bump_reference(routes):
    reference, values = routes
    return reference + POLY_ONE, values


def _bump_top(form):
    return form[:-1] + (form[-1] + ONE,)


# (entry, owner of the perturbed name, name, perturbation, the broken case's witness)
BREAKS = [
    ("q-integer-identities", QContext, "q_int",
     _bump(lambda ctx, n: n == 65 and _q(ctx) == Fraction(1, 2), _bump_scalar),
     "n=64 q=1/2"),
    ("q-pascal-recursions", QContext, "q_binom",
     _bump(lambda ctx, n, k: (n, k) == (20, 7) and _q(ctx) == Fraction(3, 4), _bump_scalar),
     "n=20 k=7 q=3/4"),
    ("jackson-monomial-beta", verify, "q_beta",
     _bump(lambda a, b, ctx: (a, b) == (4, 1) and _q(ctx) == Fraction(1, 4), _bump_scalar),
     "m=3 q=1/4"),
    ("q-beta-series", verify, "q_beta",
     _bump(lambda a, b, ctx: (a, b) == (3, 5) and _q(ctx) == Fraction(1, 2), _bump_scalar),
     "a=3 b=5 q=1/2"),
    ("partition-of-unity", verify, "bernstein_basis",
     _bump(lambda spec, k, x: (spec.n, k, x.value) == (2, 1, Fraction(5, 17))
           and _q(spec.ctx) == Fraction(1, 4), _bump_scalar),
     "n=2 q=1/4 x=5/17"),
    ("kernel-mass-total", verify, "kernel_mass",
     _bump(lambda spec, k: (spec.n, k) == (2, 1) and _q(spec.ctx) == Fraction(1, 2),
           _bump_scalar),
     "n=2 q=1/2 x=1/3"),
    ("normalization", verify, "durrmeyer_apply_poly",
     _bump(lambda spec, p: spec.n == 5 and _q(spec.ctx) == Fraction(3, 4), _bump_poly),
     "n=5 q=3/4"),
    ("raw-route-agreement", verify, "raw_routes",
     _bump(lambda n, m, ctx, m_max: (n, m) == (2, 3) and _q(ctx) == Fraction(1, 4),
           _bump_reference),
     "n=2 m=3 q=1/4"),
    ("central-route-agreement", verify, "central_routes",
     _bump(lambda n, m, ctx: (n, m) == (2, 2) and _q(ctx) == Fraction(1, 2), _bump_reference),
     "n=2 m=2 q=1/2"),
    ("central-root-check", verify, "central_factor_expand",
     _bump(lambda m, ctx: m == 3 and _q(ctx) == Fraction(1, 4), _bump_top),
     "m=3 s=0 q=1/4"),
    ("central-first-identity", verify, "central_moment",
     _bump(lambda n, m, ctx, route: n == 2 and _q(ctx) == Fraction(3, 4), _bump_poly),
     "n=2 q=3/4"),
    ("stancu-recursion-vs-direct", verify, "stancu_routes",
     _bump(lambda n, m, ctx, a, b: (n, m, a.value) == (3, 2, 2) and _q(ctx) == Fraction(1, 4),
           _bump_reference),
     "n=3 m=2 q=1/4 a=2 b=5"),
    ("stancu-zero-collapse", verify, "stancu_moment",
     _bump(lambda n, m, ctx, a, b: (n, m) == (4, 6) and _q(ctx) == Fraction(1, 2), _bump_poly),
     "n=4 m=6 q=1/2"),
    # the witness is the first case drawn at q = 3/4, after the draws at 1/4 and 1/2
    ("q-taylor-quadratic-zero", verify, "q_taylor_remainder",
     _bump(lambda f, x, t, ctx: _q(ctx) == Fraction(3, 4), _bump_scalar),
     "q=3/4 x=1/16 t=1"),
    ("q-taylor-singular-typed", verify, "q_taylor_remainder", _silent_singularity,
     "q=1/2: no error raised at t=q*x"),
]


def test_every_mandatory_entry_has_a_break():
    rows = build_report(n_max=2)["rows"]
    assert [name for name, *_ in BREAKS] == [r["name"] for r in rows if r["mandatory"]]


@pytest.mark.parametrize("entry, owner, name, perturb, witness", BREAKS,
                         ids=[b[0] for b in BREAKS])
def test_a_broken_case_fails_its_entry(monkeypatch, entry, owner, name, perturb, witness):
    monkeypatch.setattr(owner, name, perturb(getattr(owner, name)))
    report = build_report(n_max=2)
    row = {r["name"]: r for r in report["rows"]}[entry]
    assert (row["status"], row.get("witness")) == ("fail", witness)
    assert report["verdict"] == "fail"


def test_report_row_fields_refuse_assignment():
    row = ReportRow.first_failure("entry", [("a", True), ("b", False), ("c", False)], mandatory=True)
    for name in ("key", "status", "mandatory", "witness"):
        with pytest.raises(AttributeError):
            setattr(row, name, None)
    assert row.as_dict() == {"name": "entry", "status": "fail", "mandatory": True, "witness": "b"}
    assert ReportRow("audit", "match", False).witness is None
