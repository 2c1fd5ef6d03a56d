import hashlib
import json

from invseries.cli import main

DIVERGENT = "vars: x\neq: 1/x - 0.5\nstart: 5\n"
SINGULAR = "vars: x\neq: x^2\nstart: 0\n"

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
    assert "no-data" in out


def test_order_check_bad_orders_flag(capsys):
    code, _, err = run(
        capsys, "order-check", "--builtin", "incas-2var", "--orders", "2,x"
    )
    assert code == 1


def test_byte_identical_reruns(capsys):
    argv = [
        "solve", "--builtin", "incas-2var", "--order", "4",
        "--precision", "300", "--format", "csv",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
