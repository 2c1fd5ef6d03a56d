import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invseries
from invseries import cli
from invseries.cli import main
from invseries.corpus import builtin_problem
from invseries.numerics import Context
from invseries.solver import SolveConfig, solve

DIVERGENT = "vars: x\neq: 1/x - 0.5\nstart: 5\n"
SINGULAR = "vars: x\neq: x^2\nstart: 0\n"
NO_REAL_ROOT = "vars: x\neq: x^2 + 1\nstart: 0.5\n"

# sha256 of each file `invseries tables --precision 1000` writes; the
# tables are the paper's deliverable and must stay byte-identical
TABLE_DIGESTS = {
    "table_order2.md": "ea461dd3cef434ddda05f4e8036248d495bdb71ccb0e2b1192d7b672aa440040",
    "table_order3.md": "69bf4677b656faef09c0215ca351aa9ccdbb1ce0be92e8671a1529789cd3ce56",
    "table_order4.md": "228008294f3d6eff11e0844f9a1a7e9ce3096cdd792297e3bdc7f8f92f2e79a9",
    "table_order5.md": "d1e6b106aa6b8ee31a70f8cac3ca769e893e62bf379f9e6361384516829334be",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_builtin_newton(capsys):
    code, out, err = run(
        capsys,
        "solve", "--builtin", "incas-2var", "--order", "2", "--precision", "1000",
    )
    assert code == 0
    assert "2.125" in out
    assert "8.272058823e-1" in out
    assert "status: converged" in out
    # the reference run needs 13 refining iterations plus the stopping step
    assert out.count("\n| 1") >= 4


def test_solve_json_format(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--builtin", "incas-2var", "--order", "3",
        "--precision", "300", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "converged"
    assert doc["rows"][1]["x1"].startswith("1.685546875")


def test_solve_csv_prints_only_its_rows_to_stdout(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "solve", "--builtin", "scalar-square", "--order", "3",
        "--precision", "300", "--format", "csv",
    )
    assert (code, err) == (0, "status: converged\n")
    trace = solve(builtin_problem("scalar-square", Context(300)), SolveConfig(3, 300))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(trace.rows)
    assert all(None not in row and None not in row.values() for row in rows)
    # a problem without a root has no error column
    f = tmp_path / "p.prob"
    f.write_text("vars: x\neq: x^2 - 2\nstart: 1\n")
    code, out, err = run(capsys, "solve", "--problem", str(f), "--format", "csv")
    assert (code, err) == (0, "status: converged\n")
    assert out.splitlines()[0] == "iter,x,step_norm,residual_norm"


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_solve_refuses_a_variable_named_like_a_trace_column(capsys, tmp_path, fmt):
    """Two columns of one name would lose cells in a json row object and a
    ``csv.DictReader`` row, so no format prints such a table."""
    f = tmp_path / "clash.prob"
    f.write_text(
        "vars: iter step_norm\neq: iter - 1\neq: step_norm^2 - 4\n"
        "start: 3 3\nroot: 1 2\n"
    )
    code, out, err = run(
        capsys, "solve", "--problem", str(f), "--order", "2",
        "--precision", "30", "--format", fmt,
    )
    assert (code, out) == (1, "")
    assert err == "error: variable 'iter' has the name of a trace column\n"


def test_solve_order_too_small_is_usage_error(capsys):
    code, out, err = run(capsys, "solve", "--builtin", "incas-2var", "--order", "1")
    assert code == 1
    assert "at least 2" in err


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "solve", "--builtin", "nope", "--order", "2")
    assert code == 1
    assert "unknown builtin" in err


def test_unreadable_problem_file(capsys):
    code, _, err = run(capsys, "solve", "--problem", "/no/such/file", "--order", "2")
    assert code == 1


def test_parse_error_in_problem_file(capsys, tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text("vars: x\neq: x +\nstart: 1\n")
    code, _, err = run(capsys, "solve", "--problem", str(bad), "--order", "2")
    assert code == 1
    assert "line 2" in err


def test_singular_exit_code(capsys, tmp_path):
    f = tmp_path / "singular.prob"
    f.write_text(SINGULAR)
    code, out, _ = run(
        capsys, "solve", "--problem", str(f), "--order", "2", "--precision", "100"
    )
    assert code == 3
    assert "status: singular-jacobian" in out


def test_zero_denominator_at_the_start_exits_1_without_traceback(capsys, tmp_path):
    f = tmp_path / "pole.prob"
    f.write_text("vars: x\neq: 1/x - 2\nstart: 0\n")
    code, out, err = run(capsys, "solve", "--problem", str(f), "--precision", "100")
    assert code == 1
    assert out == ""
    assert err == "error: iteration 0: division by zero\n"


def test_a_byte_order_mark_is_read_as_utf8(capsys, tmp_path):
    text = "vars: x\neq: x^2 - 2\nstart: 1\n"
    plain, marked = tmp_path / "plain.prob", tmp_path / "marked.prob"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    runs = [
        run(capsys, "solve", "--problem", str(f), "--precision", "50")
        for f in (plain, marked)
    ]
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_solve_rejects_an_infinite_tol(capsys):
    code, out, err = run(
        capsys, "solve", "--builtin", "incas-2var", "--tol", "inf", "--precision", "50"
    )
    assert code == 1
    assert out == ""
    assert err == "error: tol must be a finite positive number, got inf\n"


@pytest.mark.parametrize(
    "equation, err",
    [
        (
            " + ".join(["0.001*x^2"] * 1000) + " - 1",
            "error: iteration 0: an expression nests too deeply to evaluate\n",
        ),
        ("(" * 1000 + "x^2 - 2" + ")" * 1000, "error: line 2: expression nests too deeply\n"),
    ],
    ids=["long-sum", "deep-parentheses"],
)
def test_too_deep_an_expression_exits_1_with_one_error_line(capsys, tmp_path, equation, err):
    f = tmp_path / "deep.prob"
    f.write_text(f"vars: x\neq: {equation}\nstart: 1\n")
    assert run(capsys, "solve", "--problem", str(f), "--precision", "30") == (1, "", err)


def test_250_levels_of_parentheses_solve_as_the_bare_equation(capsys, tmp_path):
    f = tmp_path / "nested.prob"
    f.write_text("vars: x\neq: " + "(" * 250 + "x^2 - 2" + ")" * 250 + "\nstart: 1\n")
    nested = run(capsys, "solve", "--problem", str(f), "--precision", "30")
    f.write_text("vars: x\neq: x^2 - 2\nstart: 1\n")
    bare = run(capsys, "solve", "--problem", str(f), "--precision", "30")
    assert nested == bare and bare[0] == 0


def test_solve_prints_more_digits_than_str_int_allows(capsys):
    code, out, err = run(
        capsys, "solve", "--builtin", "incas-2var", "--precision", "300",
        "--digits", "4301",
    )
    assert (code, err) == (0, "")
    assert out.endswith("status: converged\n")


def test_solve_reads_roots_longer_than_str_int_allows(capsys):
    # incas-3var writes its roots at precision + 25 = 4,302 digits
    code, out, err = run(capsys, "solve", "--builtin", "incas-3var", "--precision", "4277")
    assert (code, err) == (0, "")
    assert out.endswith("status: converged\n")


def _solve_file(capsys, tmp_path, text, *flags):
    f = tmp_path / "p.prob"
    f.write_text(text)
    return run(capsys, "solve", "--problem", str(f), "--precision", "50", *flags)


def test_a_literal_with_no_integer_digits_adds_zero(capsys, tmp_path):
    plain = _solve_file(capsys, tmp_path, "vars: x\neq: x^2 - 1\nstart: 4\n")
    padded = _solve_file(capsys, tmp_path, "vars: x\neq: x^2 - 1 + .0\nstart: 4\n")
    assert padded == plain and plain[0] == 0


@pytest.mark.parametrize("start", [".0", "-.000e5"])
def test_a_start_with_no_integer_digits_is_zero(capsys, tmp_path, start):
    code, out, err = _solve_file(capsys, tmp_path, f"vars: x\neq: x - 1\nstart: {start}\n")
    assert (code, err) == (0, "")
    assert "| 0 | 0 | - |" in out


def test_solve_rejects_a_zero_tol_without_integer_digits(capsys):
    code, out, err = run(
        capsys, "solve", "--builtin", "incas-2var", "--tol", ".0", "--precision", "50"
    )
    assert (code, out) == (1, "")
    assert err == "error: tol must be a finite positive number, got .0\n"


# the smallest digit limit Python accepts for int <-> str conversions
SMALLEST_INT_DIGIT_LIMIT = 640
needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter has no int <-> str digit limit",
)


LIMIT_FLAG = ["-X", f"int_max_str_digits={SMALLEST_INT_DIGIT_LIMIT}"]


def _child(*args, cwd=None, timeout=600):
    """A child interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(invseries.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=timeout,
    )


def _run_limited(*argv, cwd=None):
    """The CLI under the smallest int <-> str digit limit Python allows."""
    return _child(*LIMIT_FLAG, "-m", "invseries.cli", *argv, cwd=cwd)


def test_a_residual_with_a_huge_exponent_renders_in_its_table(tmp_path):
    """exp(10^25) is about 2^(1.4·10^25): its row renders within seconds,
    and the solve exits with its status, not a traceback."""
    f = tmp_path / "p.prob"
    f.write_text("vars: x\neq: exp(x) - 2\nstart: 1e25\n")
    done = _child(
        "-m", "invseries.cli", "solve", "--problem", str(f), "--precision", "50",
        timeout=30,
    )
    assert (done.returncode, done.stderr) == (2, "")
    # exp(10^25) = 10^(10^25·log10 e) = 10^4342944819032518276511289.189166...
    assert "| 0 | 1e25 | - | 1.545845374e4342944819032518276511289 |" in done.stdout
    assert done.stdout.endswith("status: max-iters\n")


@needs_int_digit_limit
def test_1000_digit_runs_convert_no_long_int_through_str(tmp_path):
    """Decimal text is read and written in chunks or through ``decimal``,
    so a 1000-digit run works under the smallest int <-> str limit."""
    solved = _run_limited(
        "solve", "--builtin", "incas-3var", "--precision", "1000", "--digits", "1000"
    )
    assert (solved.returncode, solved.stderr) == (0, "")
    assert solved.stdout.endswith("status: converged\n")
    checked = _run_limited("order-check", "--builtin", "incas-3var", "--precision", "1000")
    assert (checked.returncode, checked.stderr) == (0, "")
    tables = _run_limited("tables", "--precision", "1000", "--out-dir", "t", cwd=tmp_path)
    assert (tables.returncode, tables.stderr) == (0, "")
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in (tmp_path / "t").iterdir()
    }
    assert digests == TABLE_DIGESTS


@needs_int_digit_limit
def test_import_leaves_the_int_digit_limit_alone():
    probe = (
        "import sys; before = sys.get_int_max_str_digits(); "
        "import invseries, invseries.cli; "
        "print(before, sys.get_int_max_str_digits())"
    )
    for flags in ([], LIMIT_FLAG):
        before, after = _child(*flags, "-c", probe).stdout.split()
        assert before == after


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_solve_rejects_bad_digits_before_solving(capsys, monkeypatch, digits):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before --digits was checked")

    monkeypatch.setattr(cli, "solve", no_solve)
    code, out, err = run(capsys, "solve", "--builtin", "incas-2var", "--digits", digits)
    assert code == 1
    assert out == ""
    assert err == f"error: --digits must be positive, got {digits}\n"


def test_divergent_exit_code(capsys, tmp_path):
    f = tmp_path / "divergent.prob"
    f.write_text(DIVERGENT)
    code, out, _ = run(
        capsys, "solve", "--problem", str(f), "--order", "2", "--precision", "100"
    )
    assert code == 2
    assert "status: diverged" in out


def test_max_iters_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--builtin", "incas-2var", "--order", "2",
        "--precision", "300", "--max-iters", "2",
    )
    assert code == 2
    assert "status: max-iters" in out


def test_usage_error_without_subcommand(capsys):
    assert main([]) == 1


def test_missing_problem_source(capsys):
    assert main(["solve", "--order", "2"]) == 1


def test_tables_writes_four_files(capsys, tmp_path):
    out_dir = tmp_path / "tables"
    code, out, _ = run(
        capsys, "tables", "--precision", "1000", "--out-dir", str(out_dir)
    )
    assert code == 0
    files = sorted(f.name for f in out_dir.iterdir())
    assert files == [f"table_order{k}.md" for k in (2, 3, 4, 5)]
    assert "1.685546875" in (out_dir / "table_order3.md").read_text()
    assert "1.47955322265625" in (out_dir / "table_order4.md").read_text()
    assert "1.358853816986083984375" in (out_dir / "table_order5.md").read_text()
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out_dir.iterdir()
    }
    assert digests == TABLE_DIGESTS


def test_tables_unwritable_dir(capsys):
    code, _, err = run(capsys, "tables", "--out-dir", "/proc/not-allowed")
    assert code == 1


def test_tables_bad_precision_leaves_no_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "d"
    assert main(["tables", "--precision", "10", "--out-dir", str(out_dir)]) == 1
    assert "precision" in capsys.readouterr().err
    assert not out_dir.exists()


def test_order_check_passes_on_reference_orders(capsys):
    code, out, _ = run(
        capsys,
        "order-check", "--builtin", "incas-2var",
        "--orders", "2,3", "--precision", "1000",
    )
    assert code == 0
    assert "| 2 |" in out and "| 3 |" in out
    assert "FAIL" not in out


def test_order_check_affine_insufficient_data(capsys):
    code, out, _ = run(
        capsys,
        "order-check", "--builtin", "affine-3", "--orders", "2", "--precision", "300",
    )
    assert code == 0
    assert "insufficient-data" in out
    assert "| no-data (too few steps in the window) |" in out


@pytest.mark.parametrize(
    "text, status",
    [(NO_REAL_ROOT, "max-iters"), (SINGULAR, "singular-jacobian")],
    ids=["max-iters", "singular-jacobian"],
)
def test_order_check_names_the_status_of_a_solve_that_did_not_converge(
    capsys, tmp_path, text, status
):
    f = tmp_path / "unsolved.prob"
    f.write_text(text)
    code, out, _ = run(
        capsys, "order-check", "--problem", str(f), "--orders", "2,3",
        "--precision", "200",
    )
    assert code == 2
    rows = out.splitlines()[2:]
    assert rows == [
        f"| {k} | no-root | insufficient-data | no-data ({status}) |" for k in (2, 3)
    ]


def test_order_check_rejects_an_inexact_root_before_output(capsys, tmp_path):
    f = tmp_path / "inexact.prob"
    f.write_text("vars: x\neq: x^2 - 2\nstart: 1\nroot: 1.41421356\n")
    code, out, err = run(
        capsys, "order-check", "--problem", str(f), "--orders", "2",
        "--precision", "200",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: supplied root has residual 6.7121e-9;")


@pytest.mark.parametrize(
    "equation, start, err",
    [
        ("log(x)", "-1", "error: iteration 0: log of a non-positive value\n"),
        (
            " + ".join(["0.001*x^2"] * 1000) + " - 1",
            "1",
            "error: iteration 0: an expression nests too deeply to evaluate\n",
        ),
    ],
    ids=["domain-error", "too-deep"],
)
def test_order_check_prints_nothing_when_a_solve_raises(
    capsys, tmp_path, equation, start, err
):
    f = tmp_path / "raises.prob"
    f.write_text(f"vars: x\neq: {equation}\nstart: {start}\n")
    assert run(
        capsys, "order-check", "--problem", str(f), "--precision", "200"
    ) == (1, "", err)


def test_order_check_bad_orders_flag(capsys):
    code, _, err = run(
        capsys, "order-check", "--builtin", "incas-2var", "--orders", "2,x"
    )
    assert code == 1


def test_order_check_rejects_unsupported_order_before_output(capsys):
    code, out, err = run(
        capsys, "order-check", "--builtin", "incas-2var", "--orders", "2,9",
        "--precision", "100",
    )
    assert code == 1
    assert out == ""
    assert "exceeds the supported maximum 8" in err


@pytest.mark.parametrize("tol", ["-1", "0", "abc"])
def test_order_check_rejects_bad_tol_before_output(capsys, tol):
    code, out, err = run(
        capsys, "order-check", "--builtin", "incas-2var", "--orders", "2",
        "--precision", "100", "--tol", tol,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_order_check_rejects_an_empty_estimator_window(capsys):
    code, out, err = run(
        capsys, "order-check", "--builtin", "incas-2var", "--precision", "80",
    )
    assert code == 1
    assert out == ""
    assert "window (1.00e20, 1.00e-2) is empty" in err


def test_order_check_accepts_the_first_nonempty_window(capsys):
    code, out, err = run(
        capsys, "order-check", "--builtin", "incas-2var", "--orders", "2",
        "--precision", "103",
    )
    assert err == ""
    assert out.startswith("| order |")
    assert "| 2 |" in out


def test_order_check_names_the_window_that_the_steps_jumped(capsys):
    # at 103 digits the window (1e-3, 1e-2) is one decade wide: order 2 takes
    # 9 steps, but they go 3.4e-2 -> 5.6e-4 over it
    code, out, err = run(
        capsys, "order-check", "--builtin", "incas-2var", "--precision", "103",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == [
        f"| {k} | insufficient-data | insufficient-data "
        "| no-data (too few steps in the window) |"
        for k in (2, 3, 4, 5)
    ]


def test_byte_identical_reruns(capsys):
    argv = [
        "solve", "--builtin", "incas-2var", "--order", "4",
        "--precision", "300", "--format", "csv",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
