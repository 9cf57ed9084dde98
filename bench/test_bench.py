"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench
"""

import filecmp
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import impulsegame  # noqa: E402
from impulsegame import cli, riccati  # noqa: E402
from run import (NOMINAL_YARDSTICK_S, normalised, parse_importtime,  # noqa: E402
                 percentile, tail_percentile)
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert make_inputs(workload, 7, 64) == make_inputs(workload, 7, 64)


@pytest.mark.parametrize("workload,key", [("tabulate", "t"), ("long_horizon", "x0")])
def test_other_seed_changes_draws(workload, key):
    a = [inp[key] for job in make_inputs(workload, 1, 8) for inp in job]
    b = [inp[key] for job in make_inputs(workload, 2, 8) for inp in job]
    assert all(x != y for x, y in zip(a, b))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_job_is_one_round_over_both_scenarios(workload):
    for job in make_inputs(workload, 3, 8):
        assert [inp["scenario"] for inp in job] == ["table1", "table1_w2_1"]


def test_draws_stay_in_range():
    for job in make_inputs("tabulate", 3, 100):
        assert all(0.0 <= float(inp["t"]) < 1.0 for inp in job)
    for job in make_inputs("long_horizon", 3, 100):
        assert all(0.0 <= inp["x0"] <= 10.0 for inp in job)


def test_tracer_reports_missing_names_and_restores():
    traced = TRACED + (("riccati", "impulsegame.riccati", "no_such_function", None),
                       ("riccati", "impulsegame.riccati", "q9_at", "CoefficientPath"),
                       ("cli", "impulsegame.no_such_module", "main", None))
    original = riccati.solve_backward
    tracer = Tracer(traced=traced)
    tracer.install()
    try:
        assert cli.solve_backward is not original
        assert cli.solve_backward is impulsegame.solve_backward
        impulsegame.solve_backward(impulsegame.GameParams(
            a=0.1, b=-0.3, w1=1, r1=1, z1=2, s1=1, rho1=2.5, w2=4, s2=1, rho2=5,
            C=3, D=5, c=2, d=3, T=1), n_steps=64)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["impulsegame.riccati.no_such_function",
                              "impulsegame.riccati.CoefficientPath.q9_at",
                              "impulsegame.no_such_module.main"]
    assert cli.solve_backward is original and impulsegame.solve_backward is original
    assert tracer.summary([-1])["calls"]["riccati.solve_backward"] == 1


def test_self_time_subtracts_children():
    tracer = Tracer(traced=())
    outer = tracer._wrap("verify.outer", lambda: inner())
    inner = tracer._wrap("model.inner", lambda: sum(range(20000)))
    outer()
    a = tracer.arrays()
    assert a["parent"].tolist() == [-1, 0]
    assert a["self"][0] == pytest.approx(a["dur"][0] - a["dur"][1], abs=1e-12)
    s = tracer.summary([-1])
    assert s["top_s"] == pytest.approx(a["dur"][0])


@pytest.mark.parametrize("workload", ["tabulate", "certify"])
def test_traced_and_untraced_outputs_identical(tmp_path, workload):
    dirs = {}
    for traced in (False, True):
        work = Workload(workload, ROOT, str(tmp_path / f"traced{int(traced)}"))
        job = work.inputs(11, 1)[0]
        tracer = Tracer()
        if traced:
            tracer.current_job = 0
            tracer.install()
        try:
            out = work.run(job)
        finally:
            tracer.uninstall()
        assert work.check(job, out) == []
        dirs[traced] = [work.out_dir(inp["scenario"]) for inp in job]
        if traced:
            assert tracer.summary([0])["calls"]["riccati.solve_backward"] >= 2
    for plain, traced in zip(dirs[False], dirs[True]):
        names = sorted(os.listdir(plain))
        assert names == sorted(os.listdir(traced)) and names
        _, mismatch, errors = filecmp.cmpfiles(plain, traced, names, shallow=False)
        assert mismatch == [] and errors == []


def test_checks_reject_a_changed_output(tmp_path):
    work = Workload("tabulate", ROOT, str(tmp_path))
    job = work.inputs(5, 1)[0]
    out = work.run(job)
    assert work.check(job, out) == []
    costs = os.path.join(work.out_dir(job[0]["scenario"]), "costs.csv")
    with open(costs, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    with open(costs, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("costs.csv" in e for e in work.check(job, out))
    assert work.check(job, [[0, 2, 0], out[1]]) == ["table1: simulate exited 2"]


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       scipy.interpolate._x",
        "import time:       400 |        750 |     scipy.interpolate",
        "import time:        10 |        800 |   impulsegame.riccati",
        "import time:        20 |        820 | impulsegame",
    ])
    total, scipy = parse_importtime(text)
    assert total == pytest.approx(820e-6)
    assert scipy == pytest.approx(1050e-6)


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert tail_percentile(100) == pytest.approx(90.0)
    assert tail_percentile(12) == 50.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile(list(range(101)), 90) == pytest.approx(90.0)


def test_normalised_divides_each_piece_by_the_yardsticks_beside_it():
    jobs = [{"pieces_s": [1.0, 2.0], "busy_s": 3.5, "yard_s": [0.1, 0.3]},
            {"pieces_s": [1.5, 1.0], "busy_s": 3.0, "yard_s": [0.5, 0.3]}]
    times, busy = normalised(jobs, 0.1)
    n = NOMINAL_YARDSTICK_S
    scales = [n / 0.2, n / 0.4, n / 0.4, n / 0.2]
    assert times == pytest.approx([1.0 * scales[0] + 2.0 * scales[1],
                                   1.5 * scales[2] + 1.0 * scales[3]])
    assert busy == pytest.approx([3.5 * (scales[0] + scales[1]) / 2,
                                  3.0 * (scales[2] + scales[3]) / 2])


def test_yardstick_is_fixed_work_apart_from_impulsegame():
    import yardstick
    assert not any(name.startswith("impulsegame") for name in vars(yardstick))
    s1, r1 = yardstick.yardstick()
    s2, r2 = yardstick.yardstick()
    assert s1 > 0 and s2 > 0 and r1 == r2
