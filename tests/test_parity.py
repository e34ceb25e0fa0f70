"""The parity tool (tools/parity.py) on two tiny package trees that differ in one
digit of one column, and its comparison of parsed cells, without the CLI corpus."""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _load_tool():
    spec = importlib.util.spec_from_file_location("parity", os.path.join(TOOLS, "parity.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = _load_tool()

# A stand-in for collisim.cli: writes one table under --out and prints its path;
# {row1} is the cell in column w of row 1, and {code} the exit code.
CLI = '''import os, sys


def main(argv):
    out = argv[argv.index("--out") + 1]
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "t.csv")
    with open(path, "w") as fh:
        fh.write("n,w,q\\n0,1.0000000000000000e+00,2.0e+00\\n1,{row1},4.0e+00\\n")
    print(path)
    if {code}:
        print("numerical failure: x", file=sys.stderr)
    return {code}
'''


def _tree(root, row1="3.0000000000000000e+00", code=0):
    pkg = root / "src" / "collisim"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(CLI.format(row1=row1, code=code))
    return str(root / "src")


CASES = [parity._case("t", ["run"], {"model": {}})]


def test_one_digit_in_one_column_is_reported_with_its_row(tmp_path):
    a = _tree(tmp_path / "a", row1="3.0000000000000999e+00")
    b = _tree(tmp_path / "b")
    report = parity.check(a, b, CASES)
    assert (report["cases"], report["files"], report["identical_files"]) == (1, 2, 1)
    assert list(report["columns"]) == ["w"]
    assert report["columns"]["w"]["max"] == pytest.approx(1e-13 / 3, rel=1e-3)
    assert report["columns"]["w"]["at"] == "t/out/t.csv row 1"
    assert report["problems"] == []
    text, ok = parity.summary(report, 1e-11)
    assert ok and "w: max 3.3e-14 at t/out/t.csv row 1" in text
    text, ok = parity.summary(report, 1e-14)
    assert not ok and text.endswith("columns beyond tol 1e-14: w")


def test_exit_code_and_stderr_differences_fail_at_any_tolerance(tmp_path):
    report = parity.check(_tree(tmp_path / "a", code=3), _tree(tmp_path / "b"), CASES)
    assert report["identical_files"] == report["files"] == 2
    assert [p.split(" ", 2)[:2] for p in report["problems"]] == [["t:", "code"],
                                                                 ["t:", "stderr"]]
    assert parity.summary(report, 1.0)[1] is False


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("a, b, problem", [
    ('{"k": {"x": 1.0, "ok": true}}', '{"k": {"x": 1.0, "ok": false}}', "k.ok row 0"),
    ('{"k": [1.0, null]}', '{"k": [1.0, 2.0]}', "k[1] row 0"),
    ("a,s\n1.0,ground\n", "a,s\n1.0,excited\n", "s row 0"),
    ("a\ninf\n", "a\n1.0\n", "a row 0"),
    ("a\n1.0\n2.0\n", "a\n1.0\n", "a: 2 rows against 1"),
])
def test_cells_that_are_not_numbers_on_both_sides_are_problems(tmp_path, a, b, problem):
    moved, problems = parity.compare_file(_write(tmp_path / "a", a), _write(tmp_path / "b", b))
    assert [p.split(":")[0] if "rows" not in p else p for p in problems] == [problem]


def test_equal_non_finite_cells_and_a_json_table_under_a_csv_name(tmp_path):
    a = '{\n "columns": ["x", "y"],\n "rows": [["nan", "1.5"], ["-inf", "2.0"]]}'
    b = '{\n "columns": ["x", "y"],\n "rows": [["nan", "1.5"], ["-inf", "2.5"]]}'
    moved, problems = parity.compare_file(_write(tmp_path / "a.csv", a),
                                          _write(tmp_path / "b.csv", b))
    assert problems == [] and moved == {"y": (0.2, 1)}


def test_dispatch_off_disables_every_dispatched_feature():
    import numpy
    core = getattr(numpy, "_core", None) or numpy.core
    names = parity.dispatch_off_env()["NPY_DISABLE_CPU_FEATURES"].split()
    assert names == list(core._multiarray_umath.__cpu_dispatch__)


def test_corpus_covers_the_workloads_and_the_edge_cases():
    cases = parity.corpus()
    names = [case["name"] for case in cases]
    assert len(names) == len(set(names))
    for prefix in ("trajectory-s3-7", "sweep-s2", "steady-s1-199", "fig3", "fig5",
                   "ergotropy-surface", "sweep-n-axis-failing-json", "beta-minus-inf-steady",
                   "omega-s-0-run-json", "jxx-1e154-steady", "jxx-1e200-run-csv",
                   "n-1e15-run-csv", "out-under-file-run", "weak-1e-08-steady",
                   "sigma-z-column-zz-run-csv", "omega-a-0.7-full-run-csv",
                   "omega-a-1.9-ssc-steady", "sweep-omega-a"):
        assert prefix in names
    # the trajectory ops keep their --format flags, as the benchmark passes them
    assert sum("--format" in case["argv"] for case in cases
               if case["name"].startswith("trajectory-")) == 2 * 3
