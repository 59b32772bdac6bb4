"""The benchmark's own tests: `python3 -m pytest perfbench`.

Not part of the library's suite (pyproject's testpaths is tests/).
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import analyse_op  # noqa: E402


def test_smoke_every_workload_matches_the_declared_schema():
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.rstrip().endswith("smoke ok")


def test_stripped_tree_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ks_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert not any(ln.startswith("{") for ln in res.stdout.splitlines())


def _span(sid, name, t0, t1, parent, tid):
    return (sid, name, t0, t1, parent, tid, 0, 1, None)


def test_wall_attribution_partitions_a_threaded_op():
    # main thread: root [0, 10] with a pool span [1, 9]; two pool threads
    # run blocks [1, 5] and [1, 9], the first with a child [2, 4]
    spans = [
        _span(1, "cli.main", 0.0, 10.0, 0, 1),
        _span(2, "infer.ks_table_generate", 1.0, 9.0, 1, 1),
        _span(3, "infer.table_block", 1.0, 5.0, 2, 2),
        _span(4, "dist.cdf", 2.0, 4.0, 3, 2),
        _span(5, "infer.table_block", 1.0, 9.0, 2, 3),
    ]
    a = analyse_op(spans)
    names = a["names"]
    assert a["self_total"] == pytest.approx(10.0)
    assert names["cli.main"]["self_s"] == pytest.approx(2.0)
    assert names["infer.ks_table_generate"]["self_s"] == pytest.approx(0.0)
    # [2, 4] is shared by cdf and the second block; the rest of the blocks'
    # time is split between them where both run
    assert names["dist.cdf"]["self_s"] == pytest.approx(1.0)
    assert names["infer.table_block"]["self_s"] == pytest.approx(7.0)
    assert names["infer.ks_table_generate"]["incl_s"] == pytest.approx(8.0)
    assert a["threads"]["infer.table_block"] == 2


def test_solver_spans_keep_their_fit_parent():
    spans = [
        _span(1, "infer.fit_mle.q_log_normal", 0.0, 3.0, 0, 1),
        (2, "infer.solver", 0.0, 1.0, 1, 1, 0, 1, [100, 0.5]),
        (3, "infer.solver", 1.0, 3.0, 1, 1, 0, 1, [300, 0.4]),
    ]
    assert sorted(analyse_op(spans)["solver"]) == [(1, 100, 0.5), (1, 300, 0.4)]
