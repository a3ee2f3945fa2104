import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qdurrmeyer import Backend, Polynomial, Scalar, build_report, moments
from qdurrmeyer.cli import (
    RunConfig,
    _DECIMAL_BITS,
    _DECIMAL_LEAF_BITS,
    _Q_SEQUENCES,
    _TWO_POWERS,
    _big_int_text,
    _build_parser,
    _int_text,
    _scalar_cell,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMomentsCommand:
    def test_agreement_exits_zero(self, capsys):
        code, out, _ = run(capsys, "moments", "--n", "2", "--q", "1/2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,route,coefficients,agree"
        assert "1,closed,8/15|2/5,true" in lines

    def test_zero_degree_is_usage_error(self, capsys):
        code, _, err = run(capsys, "moments", "--n", "0", "--q", "1/2")
        assert code == 2
        assert "usage error" in err

    def test_bad_q_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "moments", "--n", "2", "--q", "3/2")
        assert code == 2

    def test_bad_backend_string_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--n", "2", "--q", "1/2", "--backend", "decimal"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--n", "2", "--alpha", "1"])
        assert exc.value.code == 2

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "moments", "--n", "2", "--q", "1/2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "rows", "verdict"}
        assert payload["verdict"] == "pass"

    def test_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "moments", "--n", "3", "--q", "3/4")
        _, second, _ = run(capsys, "moments", "--n", "3", "--q", "3/4")
        assert first == second

    def test_float_backend_agrees_within_tolerance(self, capsys):
        # float routes differ in the last ulps; agreement uses --tol
        code, out, _ = run(
            capsys, "moments", "--n", "6", "--q", "0.85", "--backend", "float"
        )
        assert code == 0
        assert all(line.endswith("true") for line in out.splitlines()[1:])


class TestParser:
    def test_two_calls_build_one_parser(self, capsys):
        _build_parser.cache_clear()
        first = run(capsys, "moments", "--n", "2", "--q", "1/2")
        second = run(capsys, "moments", "--n", "2", "--q", "1/2")
        assert first == second and first[0] == 0
        assert _build_parser.cache_info().misses == 1

    def test_usage_errors_still_exit_two_on_the_shared_parser(self, capsys):
        _, want, _ = run(capsys, "moments", "--n", "2", "--q", "1/2")
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--n", "2", "--m-max", "x"])
        assert exc.value.code == 2
        assert run(capsys, "moments", "--n", "0", "--q", "1/2")[0] == 2
        # an error leaves no state behind: the defaults come back on the next call
        assert run(capsys, "moments", "--n", "2", "--q", "1/2") == (0, want, "")
        assert _build_parser.cache_info().currsize == 1

    def test_each_config_owns_its_options(self):
        first, second = (RunConfig("verify", Backend.EXACT, "json", None) for _ in range(2))
        first.options["n_max"] = 3
        assert second.options == {}
        assert first.dump() == {"command": "verify", "backend": "exact", "format": "json", "n_max": 3}


class TestCentralAndStancuCommands:
    def test_central_routes_agree(self, capsys):
        code, out, _ = run(capsys, "central-moments", "--n", "3", "--q", "1/2")
        assert code == 0
        assert all(line.endswith("true") for line in out.splitlines()[1:])

    @pytest.mark.parametrize("command, first_m", [("moments", 0), ("central-moments", 1)])
    def test_closed_rows_past_degree_four(self, capsys, command, first_m):
        code, out, _ = run(capsys, command, "--n", "3", "--q", "1/2", "--m-max", "6")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(row[-1] == "true" for row in rows)
        closed = [int(row[0]) for row in rows if row[1] == "closed"]
        assert closed == list(range(first_m, 7))

    def test_central_m_max_starts_at_one(self, capsys):
        code, _, _ = run(capsys, "central-moments", "--n", "3", "--q", "1/2", "--m-max", "0")
        assert code == 2

    def test_stancu_routes_agree(self, capsys):
        code, out, _ = run(
            capsys, "stancu-moments", "--n", "2", "--q", "1/2", "--alpha", "1", "--beta", "2"
        )
        assert code == 0
        assert "direct" in out and "recursion" in out

    def test_float_factorial_overflow_is_reported(self, capsys):
        # [186]_q! overflows at q = 0.99; the moment tables form no q-factorial
        for command in (("moments",), ("central-moments",),
                        ("stancu-moments", "--alpha", "1", "--beta", "2")):
            code, out, _ = run(capsys, *command, "--n", "200", "--q", "0.99", "--backend", "float")
            assert code == 0
            rows = out.splitlines()[1:]
            assert rows and all(line.endswith(",true") for line in rows)
            assert "nan" not in out and "inf" not in out
        # the black-box path still forms float q-binomials from q-factorials
        code, out, _ = run(capsys, "voronovskaja", "--f", "exp", "--backend", "float", "--x",
                           "0.3", "--q-seq", "one-minus-inv-n", "--n-list", "64,256")
        assert code == 3
        assert out.splitlines()[-1].startswith("256,0.99609375,0.3,error:float q-factorial")

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("alpha, beta", [("3", "1"), ("-1", "2")])
    @pytest.mark.parametrize("command", [
        "stancu-moments --n 2 --q 1/2",
        "voronovskaja --f t2 --x 0.3 --n-list 8,16 --variant stancu",
    ])
    def test_stancu_parameter_order_enforced(self, capsys, tmp_path, command, alpha, beta,
                                             backend, to_file):
        # the library's own parameter check reports before any row is written
        out = tmp_path / "rows.csv"
        argv = command.split() + [f"--alpha={alpha}", f"--beta={beta}", "--backend", backend]
        code, stdout, err = run(capsys, *argv, *(["--out", str(out)] if to_file else []))
        want = "usage error: stancu parameters need 0 <= alpha <= beta\n"
        assert (code, stdout, err) == (2, "", want)
        assert not out.exists()


class TestVoronovskajaCommand:
    def test_grid_integrates_each_kernel_index_once(self, capsys, monkeypatch):
        from qdurrmeyer import operators

        calls = []
        series = operators.jackson_series

        def counted(*args, **kwargs):
            calls.append(1)
            return series(*args, **kwargs)

        monkeypatch.setattr(operators, "jackson_series", counted)
        _, out, _ = run(capsys, "voronovskaja", "--f", "exp", "--backend", "float",
                        "--x-grid", "1/5:4/5:4", "--n-list", "8")
        assert len(out.splitlines()) == 5 and "error" not in out
        assert len(calls) == 9  # k = 0..8 once for the grid, not once per x (36)

    def test_stancu_blackbox_stays_in_domain(self, capsys):
        # the affine map once rounded to 1.0000000000000002 at n = 6
        code, out, err = run(capsys, "voronovskaja", "--f", "exp", "--backend", "float",
                             "--variant", "stancu", "--alpha", "1", "--beta", "1", "--x", "0.5",
                             "--q-seq", "one-minus-inv-n", "--n-list", "4,6")
        assert code == 3  # 1 - 1/n drifts to a different limit
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["4", "6"]
        assert "error" not in out + err

    def test_admissible_sequence_meets_tolerance(self, capsys):
        code, out, _ = run(
            capsys,
            "voronovskaja",
            "--f", "t2", "--x", "0.3",
            "--n-list", "64,128,256,512",
            "--q-seq", "one-minus-inv-n-squared",
            "--backend", "float",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "n,q_n,x,lhs,rhs_limit,abs_err,trend"

    def test_default_sequence_fails_tolerance(self, capsys):
        # along 1 - 1/n the deviation settles at the e^-1 adjusted limit
        code, _, err = run(
            capsys,
            "voronovskaja",
            "--f", "t2", "--x", "0.3",
            "--n-list", "64,128,256,512",
            "--backend", "float",
        )
        assert code == 3
        assert "worst offender" in err

    def test_worst_offender_names_the_error(self, capsys):
        code, out, err = run(
            capsys,
            "voronovskaja",
            "--f", "exp", "--backend", "float", "--x-grid", "0.05:0.95:3",
            "--q-seq", "one-minus-inv-n", "--n-list", "4", "--max-terms", "2",
        )
        assert code == 3
        assert out.count("error:Jackson series did not reach") == 3
        # the first error row stays the worst; its message is the reason
        assert err.startswith(
            "tolerance failure: worst offender x=0.05 n=4 "
            "error: Jackson series did not reach tol=1e-12 within 2 terms"
        )
        assert "lhs" not in err

    def test_worst_offender_prints_float_approximations(self, capsys):
        code, out, err = run(
            capsys,
            "voronovskaja", "--f", "t2", "--x-grid", "5/128:101/128:4",
            "--n-list", "8,16,32,64,128,256,512",
        )
        assert code == 3
        assert err == (
            "tolerance failure: worst offender x=101/128 n=512 "
            "lhs~0.206983 rhs~-0.579468 abs_err~0.786451\n"
        )

    def test_float_stancu_point_past_the_range_is_a_row_error(self, capsys):
        code, out, err = run(capsys, "voronovskaja", "--backend", "float", "--x", "0.3",
                             "--variant", "stancu", "--alpha", "0", "--beta", "1e308",
                             "--n-list", "4")
        reason = "float Stancu point leaves the float range; use the exact backend"
        assert code == 3
        assert out.splitlines()[1] == f"4,0.75,0.3,error:{reason},,,"
        assert err == f"tolerance failure: worst offender x=0.3 n=4 error: {reason}\n"

    @pytest.mark.parametrize("name", list(_Q_SEQUENCES))
    def test_exact_backend_is_accepted_when_the_sequence_declares_it(self, capsys, name):
        code, _, err = run(capsys, "voronovskaja", "--q-seq", name, "--n-list", "4,8")
        if _Q_SEQUENCES[name]().exact is None:
            assert (code, err) == (2, f"usage error: {name} needs --backend float\n")
        else:
            assert code in (0, 3) and not err.startswith("usage error")

    def test_alpha_rejected_for_plain(self, capsys):
        code, _, _ = run(
            capsys, "voronovskaja", "--f", "t2", "--x", "0.3", "--alpha", "1", "--beta", "2"
        )
        assert code == 2

    def test_stancu_variant(self, capsys):
        code, _, _ = run(
            capsys,
            "voronovskaja",
            "--f", "t2", "--x", "0.3",
            "--variant", "stancu", "--alpha", "1", "--beta", "2",
            "--n-list", "64,128,256,512",
            "--q-seq", "one-minus-inv-n-squared",
            "--backend", "float",
        )
        assert code == 0

    def test_x_grid_and_x_are_exclusive(self, capsys):
        code, _, _ = run(
            capsys, "voronovskaja", "--x", "0.3", "--x-grid", "0.2:0.8:3"
        )
        assert code == 2

    def test_bad_grid_endpoint_is_usage_error(self, capsys):
        code, out, err = run(capsys, "voronovskaja", "--x-grid", "1/0:1:3")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: cannot parse number '1/0'")

    @pytest.mark.parametrize("grid, reason", [
        ("0.2:0.2:3", "repeats its one point 3 times"),
        ("0.2:0.4:1", "has one step, so it would drop its endpoint 0.4"),
    ])
    def test_degenerate_grid_is_usage_error(self, capsys, grid, reason):
        code, out, err = run(capsys, "voronovskaja", "--x-grid", grid)
        assert (code, out) == (2, "")
        assert err == f"usage error: grid '{grid}' {reason}\n"

    def test_one_point_grid_is_accepted(self, capsys):
        code, out, _ = run(capsys, "voronovskaja", "--x-grid", "0.3:0.3:1", "--n-list", "4,8",
                           "--q-seq", "one-minus-inv-n-squared", "--format", "csv")
        assert code in (0, 3)
        assert len(out.splitlines()) == 1 + 2

    def test_boundary_x_rejected(self, capsys):
        code, _, _ = run(capsys, "voronovskaja", "--x", "0")
        assert code == 2

    def test_builtin_needs_float_backend(self, capsys):
        code, _, _ = run(capsys, "voronovskaja", "--f", "exp", "--x", "0.3")
        assert code == 2

    def test_json_config_names_a_black_box_f(self, capsys):
        code, out, _ = run(capsys, "voronovskaja", "--f", "exp", "--backend", "float",
                           "--x", "0.3", "--n-list", "4", "--format", "json")
        assert code == 3
        assert json.loads(out)["config"]["f"] == "FunctionSpec(exp)"

    @pytest.mark.parametrize("flag", [("--tol", "0"), ("--tol", "-1"), ("--max-terms", "0")])
    def test_jackson_flags_validated(self, capsys, flag):
        code, out, err = run(
            capsys,
            "voronovskaja",
            "--f", "exp", "--backend", "float", "--x", "0.3", "--n-list", "4,8",
            *flag,
        )
        assert code == 2
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize(
        "flag",
        [("--rtol", "nan"), ("--floor", "nan"), ("--tol", "nan"), ("--tol", "inf"),
         ("--rtol", "inf"), ("--floor", "inf")],
    )
    def test_non_finite_options_are_usage_errors(self, capsys, flag):
        code, out, err = run(
            capsys,
            "voronovskaja",
            "--f", "exp", "--backend", "float", "--x", "0.3", "--n-list", "4,8",
            *flag,
        )
        assert code == 2
        assert out == ""
        assert "usage error" in err and "finite" in err

    def test_non_finite_moment_tolerance_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "moments", "--n", "3", "--q", "0.5", "--backend", "float", "--tol", "nan"
        )
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_exact_json_is_deterministic(self, tmp_path, capsys):
        args = [
            "voronovskaja", "--f", "t", "--x", "1/2",
            "--n-list", "8,16,32", "--format", "json",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        # small n misses the n = 512 tolerance policy; determinism is the point
        assert main(args + ["--out", str(a)]) == 3
        assert main(args + ["--out", str(b)]) == 3
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert set(payload) == {"config", "rows", "verdict"}
        # x = 1/2 with f = t is the symmetry point: target is exactly 0
        assert all(row["rhs_limit"] == "0" for row in payload["rows"])

    def test_tied_errors_read_dec(self, capsys):
        # f = 1 is reproduced exactly, so both errors are 0: a tie is no growth
        code, out, _ = run(capsys, "voronovskaja", "--f", "one", "--x", "0.3", "--n-list", "4,8")
        assert code == 0
        assert out.splitlines()[1:] == ["4,3/4,3/10,0,0,0,", "8,7/8,3/10,0,0,0,dec"]


class TestIntText:
    """Large ints print by divide and conquer; the text must be str()'s."""

    def test_equals_str(self):
        rng = random.Random(8)
        cases = [0, 1, 10 ** 30_103, 10 ** 30_103 - 1, (1 << 300_000) - 1, 1 << 300_000]
        widths = [_DECIMAL_BITS - 1, _DECIMAL_BITS, _DECIMAL_BITS + 1, 100_000, 300_000]
        for j in range(9):  # the split widths leaf * 2^j up to the bench's largest ints
            w = _DECIMAL_LEAF_BITS << j
            cases += [(1 << w) - 1, 1 << w]
            widths += [w - 1, w, w + 1]
        for bits in widths:
            cases.append(rng.getrandbits(bits) | (1 << (bits - 1)))  # exactly `bits` long
        for i in cases:
            assert _int_text(i) == str(i) and _int_text(-i) == str(-i), i.bit_length()

    def test_threshold_neighbours_take_the_right_route(self):
        _big_int_text.cache_clear()
        for bits in (_DECIMAL_BITS - 1, _DECIMAL_BITS, _DECIMAL_BITS + 1):
            k = (1 << (bits - 1)) + 12345
            assert _int_text(k) == str(k) and _int_text(-k) == str(-k)
        assert _big_int_text.cache_info().misses == 2  # only the +1 width, both signs

    def test_power_table_holds_one_square_per_aligned_width(self):
        _int_text(random.Random(11).getrandbits(300_000) | 1)
        assert set(_TWO_POWERS) == set(range(len(_TWO_POWERS)))
        for j, power in _TWO_POWERS.items():
            assert int(power) == 1 << (_DECIMAL_LEAF_BITS << j)

    def test_repeated_int_comes_from_the_memo(self):
        k = -(random.Random(12).getrandbits(60_000) | 1)
        _big_int_text.cache_clear()
        first = _int_text(k)
        second = _int_text(k)
        assert first == second == str(k)
        info = _big_int_text.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_memo_stays_at_its_bound(self):
        rng = random.Random(13)
        bound = _big_int_text.cache_info().maxsize
        _big_int_text.cache_clear()
        for _ in range(bound + 5):
            k = rng.getrandbits(_DECIMAL_BITS + 100) | 1
            assert _int_text(k) == str(k)
        assert _big_int_text.cache_info().currsize == bound

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="the interpreter has no int -> str digit limit")
    def test_calls_no_str_above_the_default_digit_limit(self):
        # 4300 digits is the interpreter's default limit; str() raises past it
        cases = [10 ** 4300, -(random.Random(14).getrandbits(200_000) | 1)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            texts = [_int_text(k) for k in cases]
        finally:
            sys.set_int_max_str_digits(limit)
        assert texts == [str(k) for k in cases]

    def test_cell_equals_str_of_fraction(self):
        rng = random.Random(9)
        num = -(rng.getrandbits(120_000) | 1)
        for den in (1, rng.getrandbits(90_000) | 1):
            value = Fraction(num, den)
            assert _scalar_cell(Scalar.exact(value)) == str(value)


class TestRemainderCommand:
    def test_grid_output(self, capsys):
        code, out, _ = run(
            capsys, "remainder", "--f", "t3", "--x", "1/2", "--q", "1/2", "--steps", "4"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,t,theta,note"
        # theta for t^3 is t - q^2 x: first grid point t = 3/4 gives 5/8
        assert lines[1] == "1,3/4,5/8,"

    def test_float_steps_past_double_range(self, capsys):
        # 2**i exceeds the float range past i = 1023; the grid must not overflow
        code, out, _ = run(
            capsys, "remainder", "--backend", "float", "--f", "t3", "--x", "0.5",
            "--q", "0.5", "--steps", "1100",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 1100

    def test_float_t_that_rounds_onto_x_is_noted(self, capsys):
        # from step 53, x + (1 - x)/2^i rounds to x = 0.5 in binary64, where
        # theta(x; x) = 0 by definition; the rows before read t - q^2 x = 0.375
        code, out, _ = run(capsys, "remainder", "--f", "t3", "--x", "1/2", "--q", "1/2",
                           "--backend", "float", "--steps", "60")
        assert code == 0
        lines = out.splitlines()
        assert lines[52] == "52,0.5000000000000001,0.3749999999999994,"
        assert lines[53:] == [f"{i},0.5,,t-rounds-to-x" for i in range(53, 61)]

    def test_float_denominator_that_underflows_reads_singular(self, capsys):
        # from step 538 (t - x)(t - qx) underflows to 0 at x = 1e-300
        code, out, _ = run(capsys, "remainder", "--backend", "float", "--f", "t3",
                           "--x", "1e-300", "--q", "1/2", "--steps", "550")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 550 and lines[537].split(",")[3] == ""
        assert all(",singular:theta_q is singular at a (t-x)(t-qx) that underflows to 0" in line
                   for line in lines[538:])

    def test_tol_is_not_an_option(self, capsys):
        # only the moment tables read a tolerance; a remainder grid is exact or plain float
        with pytest.raises(SystemExit) as exc:
            main(["remainder", "--f", "t3", "--x", "1/2", "--q", "1/2", "--steps", "2",
                  "--tol", "nan"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "moments", "--n", "2", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"usage error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("argv, message", [
    ("voronovskaja --x-grid 0.1:0.9", "grid must look like a:b:steps, got '0.1:0.9'"),
    ("voronovskaja --x-grid 0.1:0.9:x", "grid step count must be an integer"),
    ("voronovskaja --x-grid 0.1:0.9:0", "grid needs at least one step"),
    ("voronovskaja --n-list 8,a", "cannot parse n list '8,a'"),
    ("voronovskaja --n-list 16,8", "n list must be strictly increasing"),
    ("moments --n 2 --tol 0", "tol must be positive"),
    ("moments --n 2 --m-max -1", "m-max must be >= 0"),
    ("voronovskaja --q-seq one-minus-inv-sqrt-n", "one-minus-inv-sqrt-n needs --backend float"),
    ("voronovskaja --variant stancu --alpha 1", "stancu variant needs --alpha and --beta"),
    ("voronovskaja --rtol 0", "rtol must be positive and floor nonnegative"),
    ("voronovskaja --floor -1", "rtol must be positive and floor nonnegative"),
    ("remainder --x 1", "x must lie strictly inside (0, 1)"),
    ("remainder --steps 0", "steps must be >= 1"),
    ("verify --n-max 0", "n-max must be >= 1"),
    ("voronovskaja --backend float --x 1e400", "'1e400' is outside the float range"),
    ("voronovskaja --backend float --x-grid 0.1:1e400:3",
     "'0.1:1e400:3' is outside the float range"),
    ("remainder --backend float --q 1e400", "'1e400' is outside the float range"),
    ("stancu-moments --n 2 --backend float --alpha 1e400 --beta 1e401",
     "'1e400' is outside the float range"),
    ("stancu-moments --n 3 --q 0.5 --alpha 1e300 --beta 1e300 --backend float",
     "float power leaves the float range; use the exact backend"),
    ("remainder --backend float --f exp --x 1e-200 --q 1e-200 --steps 2",
     "a float q-difference quotient at x = 1e-200 divides by a product that underflows to 0"),
])
def test_refusal_is_usage_error(capsys, argv, message):
    assert run(capsys, *argv.split()) == (2, "", f"usage error: {message}\n")


# edge inputs at the float range: each run ends with a documented exit code, never a traceback
@pytest.mark.parametrize("argv", [
    "stancu-moments --n 3 --q 0.5 --alpha 1e300 --beta 1e300 --backend float",
    "voronovskaja --backend float --x 0.3 --variant stancu --alpha 0 --beta 1e308 --n-list 4",
    "remainder --backend float --f t3 --x 1e-300 --q 1/2 --steps 550",
    "remainder --backend float --f exp --x 1e-200 --q 1e-200 --steps 2",
    "voronovskaja --backend float --x 5e-324 --n-list 4",
    "voronovskaja --x 5e-324 --n-list 4",
    "voronovskaja --backend float --f exp --x 5e-324 --n-list 4",
    "voronovskaja --backend float --x 5e-324 --variant stancu --alpha 1 --beta 2 --n-list 4",
    "remainder --backend float --f exp --x 5e-324 --steps 2",
    "remainder --backend float --f t3 --x 5e-324 --steps 2",
    "moments --backend float --q 1e-320 --n 3",
    "central-moments --backend float --q 1e-320 --n 3",
    "stancu-moments --backend float --q 1e-320 --n 3 --alpha 1 --beta 2",
    "remainder --backend float --f exp --q 1e-320 --steps 2",
    "moments --q 1e-320 --n 3",
    "voronovskaja --backend float --rtol 1e-320 --n-list 4",
    "voronovskaja --rtol 1e-320 --n-list 4",
    "voronovskaja --backend float --f exp --rtol 1e-320 --n-list 4",
])
def test_edge_input_exits_with_a_documented_code(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


class TestVerifyCommand:
    def test_runs_as_a_module(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "qdurrmeyer", "verify", "--n-max", "2"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["verdict"] == "pass"

    def test_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--n-max", "5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "pass"
        rows = {r["name"]: r for r in payload["rows"]}
        assert rows["lemma1.1-m4-transcription"]["status"] in (
            "match",
            "mismatch-documented",
        )
        assert rows["lemma1.1-m4-transcription"]["status"] == "mismatch-documented"
        assert not rows["lemma1.1-m4-transcription"]["mandatory"]
        mandatory = [r for r in payload["rows"] if r["mandatory"]]
        assert mandatory and all(r["status"] == "pass" for r in mandatory)


class TestSharedRouteSets:
    """`verify` and the moment tables both read the route sets of `moments`."""

    @pytest.fixture
    def perturbed_closed(self, monkeypatch):
        original = moments.raw_moment_closed

        def perturbed(n, m, ctx):
            value = original(n, m, ctx)
            return value + Polynomial.one(ctx.backend) if (n, m) == (3, 2) else value

        monkeypatch.setattr(moments, "raw_moment_closed", perturbed)

    def test_verify_sees_a_perturbed_route(self, perturbed_closed):
        report = build_report(n_max=3)
        rows = {r["name"]: r for r in report["rows"]}
        assert rows["raw-route-agreement"]["status"] == "fail"
        assert rows["raw-route-agreement"]["witness"] == "n=3 m=2 q=1/4"
        assert report["verdict"] == "fail"

    def test_moment_table_sees_a_perturbed_route(self, capsys, perturbed_closed):
        code, out, _ = run(capsys, "moments", "--n", "3", "--q", "1/4")
        assert code == 4
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[1] for row in rows if row[0] == "2"] == ["closed", "brute", "recurrence"]
        assert all((row[-1] == "false") == (row[0] == "2") for row in rows)


# stdout sha256 of the README examples (verify writes to stdout here instead
# of --out), pinned so that refactors keep the output byte for byte; the two
# verify pins in this file were re-captured when the central-factor-m3 witness
# began to print both coefficient tuples, the only line of either output that
# changed
README_EXAMPLES = [
    ("moments --n 2 --q 1/2", 0,
     "80c110d8f4b8874bfda0f9f996df93ae3e9b9e874b3f6f69261c06a184942698"),
    ("central-moments --n 3 --q 1/2 --format json", 0,
     "7057802e36b9e3828b7f90bf27967d8cb92db2e554ebf7c7d2a70b40e387658b"),
    ("stancu-moments --n 2 --q 1/2 --alpha 1 --beta 2", 0,
     "1847a8ff0e1534d0971ee964053cc214bebcf01e3b73bd0cfb501276fa0ad9cd"),
    ("voronovskaja --f t2 --x 0.3 --q-seq one-minus-inv-n-squared", 0,
     "af0ba99ac49b32181681f2494c53846fe1fad221e638f7f242c97723b17acf45"),
    ("voronovskaja --f t2 --x 0.3", 3,
     "246d6c5933767c4c350e74dd1fe79b3a5189a73b24b46fa64d4a5cb31dc6d424"),
    ("remainder --f t3 --x 1/2 --q 1/2 --steps 10", 0,
     "ad107cdd7564e21d710210d912e39d3d4126b8a1ade452f4ee1e0a434027e2c9"),
    ("verify --n-max 8", 0,
     "94abcaf1a1388e82197b7f88e00905785fb5a368fb3d4632d9b6a026524b316f"),
]


# stdout sha256 of outputs at benchmark scale: the moment tables were
# captured before the kernel sum moved to Gauss's formula, the exact
# voronovskaja sweeps (q_n = 1 - 1/n^2 up to n = 1024) before exact
# q-integers moved to the closed form (the JSON one before large ints shared
# one table of decimal powers), the float black-box grids before the kernel
# integrals were shared across x
BENCHMARK_SCALE_EXAMPLES = [
    ("moments --n 32 --q 5/16", 0,
     "e105b036ea7382b0ebf7f1f7536619d388a304d2e4e6be9ab9d5337c6bd20394"),
    ("moments --n 28 --q 13/16", 0,
     "8ac011ed4b3832053f575ffddcc20168f24f8d1b43609727c112bea8aefb159e"),
    ("central-moments --n 32 --q 13/16", 0,
     "2ffbaf02846875c06cb86ee61bfd6399efeb814404c32feff73805c9b256b29e"),
    ("stancu-moments --n 24 --alpha 1 --beta 2 --q 5/16", 0,
     "b93e4af852ef527b8fa27fe9c7b03cb144feeec789adff642e4e3b224b62ecc4"),
    ("voronovskaja --f t4 --x 25/128 --q-seq one-minus-inv-n-squared "
     "--n-list 8,16,32,64,128,256,512,1024", 0,
     "7671d1a61b0446e16c0f7cf4d3d866adf2736d52f2195cac7edbd27b9b56caf6"),
    ("voronovskaja --f t2 --x-grid 5/128:101/128:4 --q-seq one-minus-inv-n-squared "
     "--n-list 8,16,32,64,128,256,512,1024", 0,
     "d2245eb7a431bd8be41535676bfd50e2551f67f2baabbdc7bb614d6f57b2774e"),
    ("voronovskaja --f t3 --x 25/128 --variant stancu --alpha 1 --beta 2 "
     "--q-seq one-minus-inv-n-squared --n-list 8,16,32,64,128,256,512,1024", 0,
     "d8ced9dd1c8fc538d54d5080fa59b87730d6e2ae57554f019e5b84a3047acf94"),
    ("voronovskaja --f t2 --x 25/128 --q-seq one-minus-inv-n "
     "--n-list 8,16,32,64,128,256,512", 3,
     "5728e3da6f9692adf7a7d89d5e1c1a9bbd2b155babc3f134536f39d5ef3e7b17"),
    ("voronovskaja --f t4 --x 25/128 --q-seq one-minus-inv-n-squared "
     "--n-list 512,1024 --format json", 0,
     "7aa27830e916423776f6f4cb41e1ae90898f29e794deecc7718efbdc37d0ff94"),
    ("voronovskaja --backend float --x-grid 177/1000:777/1000:4 --n-list 4,8,16,32 "
     "--f exp --q-seq one-minus-inv-n", 3,
     "7b98fec18cda695a01126970580d8847ef85aa8ffc101a676d5dd62fc88f0406"),
    ("voronovskaja --backend float --x-grid 177/1000:777/1000:4 --n-list 4,8,16,32 "
     "--f exp --q-seq one-minus-inv-n-squared", 3,
     "4b35bfc6d452ad84b31caf53d567d05d0cba303f31f2270d7b31f362d5d148b8"),
    ("voronovskaja --backend float --x-grid 177/1000:777/1000:4 --n-list 4,8,16,32 "
     "--f sin --q-seq one-minus-inv-n", 3,
     "18f228ea847890d24ce85b47cf4c180f1288e84d71243052f52874a60d5af804"),
    ("voronovskaja --backend float --x-grid 177/1000:777/1000:4 --n-list 4,8,16,32 "
     "--f sin --q-seq one-minus-inv-n-squared", 3,
     "fe43d3057deb5e2778c649ee30050ec4e48477ec036ab40ebb241a6856b72d46"),
]


# stdout sha256 of exact voronovskaja rows captured while every row was
# still assembled from Fraction arithmetic and printed with str(); the bench
# runs neither command
INTEGER_ROW_EXAMPLES = [
    ("voronovskaja --f t3 --x 3/10 --variant stancu --alpha 1/3 --beta 1/2 "
     "--q-seq one-minus-inv-n-squared --n-list 8,64,512", 0,
     "69b2fe84bedc748f0cbd825ab413a96968f90cd6a0ca1c96041b84be29b14255"),
    ("voronovskaja --f t3 --x 3/10 --q-seq one-minus-inv-n-squared "
     "--n-list 8,16,32,64,128,256,512,1024", 0,
     "65829d414491e73f9f58af676df4c82337caedaa05d11b959036b0ae59eee15a"),
]


# stdout sha256 captured while the kernel sum still divided q-factorials; the
# first command is the bench's verify run
FACTORIAL_FREE_EXAMPLES = [
    ("verify --n-max 10", 0,
     "36ef764d7d463fef713c89baf4963cd60784f17a91bb469ea77febdb1a0ad880"),
    ("moments --n 256 --q 65535/65536", 0,
     "644fcd32f37d858fd83d1188800a219f1ef52460470d6c859276f38d224be4ea"),
]


# stdout sha256 of float black-box rows captured while each Jackson node was
# still a Scalar: a Stancu row, truncation rows under a tol no term can reach
# and under a small --max-terms, JSON, and the shifted builtins
BLACKBOX_EXAMPLES = [
    ("voronovskaja --backend float --f exp --x 0.3 --variant stancu --alpha 0.5 --beta 1.5 "
     "--q-seq one-minus-inv-n-squared --n-list 4,8,16", 3,
     "467de7bccedcd3f03f655a2ec221f197d7bf819c40b7a268c7dc4b913f05427e"),
    ("voronovskaja --backend float --f exp --x-grid 0.2:0.8:4 --q-seq one-minus-inv-n "
     "--n-list 8,16,32,64 --tol 1e-300", 3,
     "9ec52b76e78ffd8e2039ca112eb54c00cc73f849f1353b200b43075fd93f6b80"),
    ("voronovskaja --backend float --f sqrt-shift --x 0.3 --variant stancu --alpha 1 --beta 1 "
     "--n-list 4,8,16 --format json", 3,
     "4ca06cae5a91a10786485bf5eee0909edc237029d18903b2fda01dc658810be2"),
    ("voronovskaja --backend float --f reciprocal-shift --x 0.6 --n-list 4,8 --max-terms 50", 3,
     "be63808ea614cc17ad156ae49d1c055f20df7226904349382b91d530cee8362a"),
    ("voronovskaja --backend float --f abs-shift --x 0.3 --n-list 4,8", 3,
     "10e634f5712b37ad12bde0a1add40bd01f901615a452c78dad6feb905860035a"),
]


def assert_pinned(capsys, command, exit_code, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, exit_code, digest", README_EXAMPLES)
def test_readme_example_output_is_pinned(capsys, command, exit_code, digest):
    assert_pinned(capsys, command, exit_code, digest)


@pytest.mark.parametrize("command, exit_code, digest", BENCHMARK_SCALE_EXAMPLES)
def test_benchmark_scale_output_is_pinned(capsys, command, exit_code, digest):
    assert_pinned(capsys, command, exit_code, digest)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int -> str digit limit")
@pytest.mark.parametrize("command, exit_code, digest", BENCHMARK_SCALE_EXAMPLES)
def test_benchmark_scale_output_under_the_default_digit_limit(capsys, command, exit_code, digest):
    # 4300 digits is the interpreter's default; main must print under it and leave it set
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert_pinned(capsys, command, exit_code, digest)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command, exit_code, digest", INTEGER_ROW_EXAMPLES)
def test_integer_row_output_is_pinned(capsys, command, exit_code, digest):
    assert_pinned(capsys, command, exit_code, digest)


@pytest.mark.parametrize("command, exit_code, digest", FACTORIAL_FREE_EXAMPLES)
def test_factorial_free_output_is_pinned(capsys, command, exit_code, digest):
    assert_pinned(capsys, command, exit_code, digest)


@pytest.mark.parametrize("command, exit_code, digest", BLACKBOX_EXAMPLES)
def test_blackbox_output_is_pinned(capsys, command, exit_code, digest):
    assert_pinned(capsys, command, exit_code, digest)
