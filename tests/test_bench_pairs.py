"""The paired benchmark tool (tools/bench_pairs.py): its statistics and its
check for uncommitted edits, without running the benchmark."""

import importlib.util
import os
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_tool()


def _result(value, correct=True, failed=0, attempted=10):
    return {"metrics": {"m": {"value": value}}, "correct": correct, "failed": failed,
            "attempted": attempted}


def _summary(parent, change, better, **change_checks):
    runs = {"parent": [_result(v) for v in parent],
            "change": [_result(v, **change_checks) for v in change]}
    spec = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    return bench_pairs.summarize(runs, [spec])


@pytest.mark.parametrize("better, won", [("lower", 2), ("higher", 1)])
def test_pairs_won_with_ties_counted_for_neither_side(better, won):
    # pair 2 is a tie and counts for neither side
    out = _summary([1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 4.0, 3.0], better)
    assert out["m"]["pairs_won"] == won
    assert out["m"]["pairs"] == 4
    assert (out["m"]["better"], out["m"]["unit"], out["m"]["bound"]) == (better, "s", 0.25)


def test_median_and_quartiles_of_each_side():
    out = _summary([4.0, 1.0, 3.0, 2.0], [10.0, 10.0, 10.0, 10.0], "lower")
    assert out["m"]["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                                  "runs": [4.0, 1.0, 3.0, 2.0]}
    assert out["m"]["change"]["median"] == out["m"]["change"]["q1"] == 10.0


def test_checks_per_side():
    out = _summary([1.0, 2.0], [1.0, 2.0], "lower", correct=False, failed=3)
    assert out["checks"]["parent"] == {"correct": True, "failed": 0, "attempted": 20}
    assert out["checks"]["change"] == {"correct": False, "failed": 6, "attempted": 20}


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path):
    for name in ("src/pkg.py", "perfbench/run.py", "README.md"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("x = 1\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "initial")
    return tmp_path


def test_a_clean_checkout_is_committed(repo):
    assert bench_pairs.uncommitted(str(repo)) is False


def test_files_the_runs_do_not_read_are_not_uncommitted(repo):
    (repo / "notes.md").write_text("untracked notes\n")
    (repo / "README.md").write_text("edited\n")
    assert bench_pairs.uncommitted(str(repo)) is False


@pytest.mark.parametrize("name", ["src/pkg.py", "src/new.py", "perfbench/run.py"])
def test_an_edit_or_new_file_the_runs_read_is_uncommitted(repo, name):
    (repo / name).write_text("x = 2\n")
    assert bench_pairs.uncommitted(str(repo)) is True
