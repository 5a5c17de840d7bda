"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repeat  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from hesscells import cli, groebner  # noqa: E402
from hesscells.polyring import poly_parse_text, zvar  # noqa: E402


def test_reduce_steps_on_a_hand_checked_division():
    # x^2*y + x*y^2 + y^2 divided by (x*y - 1, y^2 - 1) in lex x > y, with
    # x = z_1_1 and y = z_1_2.  The six steps, by leading term:
    #   x^2*y -> quotient 1 gets x     x*y^2 -> quotient 1 gets y
    #   x     -> remainder             y^2   -> quotient 2 gets 1
    #   y     -> remainder             1     -> remainder
    order = groebner.MonomialOrder([zvar(1, 1), zvar(1, 2)])
    f = poly_parse_text("z_1_1^2*z_1_2 + z_1_1*z_1_2^2 + z_1_2^2")
    divisors = [poly_parse_text("z_1_1*z_1_2 - 1"), poly_parse_text("z_1_2^2 - 1")]
    tracer = spans.Tracer()
    traced_reduce = tracer.wrap(groebner.reduce, "groebner.reduce")

    quotients, remainder = traced_reduce(f, divisors, order)

    assert quotients == [poly_parse_text("z_1_1 + z_1_2"), poly_parse_text("1")]
    assert remainder == poly_parse_text("z_1_1 + z_1_2 + 1")
    assert tracer.metrics()["groebner.reduce.steps"] == 6
    assert tracer.metrics()["groebner.reduce.calls"] == 1


def sweep_report(n: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sweep", "--max-n", str(n), "--jobs", "1", "--format", "json"]) == 0
    return out.getvalue()


def test_digest_gate_accepts_the_report_and_ignores_elapsed_seconds():
    pin = repeat.load_pin(repeat.pin_key("sweep", 4))
    text = sweep_report(4)
    assert repeat.check_report(text, pin) == []
    doc = json.loads(text)
    doc["elapsedSeconds"] = 12345.678
    assert repeat.check_report(json.dumps(doc, indent=2) + "\n", pin) == []


def test_digest_gate_rejects_a_tampered_report():
    pin = repeat.load_pin(repeat.pin_key("sweep", 4))
    doc = json.loads(sweep_report(4))
    fixed = next(c for c in doc["cases"] if c["fixedPoint"])
    fixed["dim"] += 1
    problems = repeat.check_report(json.dumps(doc, indent=2) + "\n", pin)
    assert len(problems) == 1 and "digest" in problems[0]
    # Same content in another layout is rejected too.
    assert repeat.check_report(json.dumps(json.loads(sweep_report(4))) + "\n", pin)


# Reduced sizes.  The pool workload runs at n = 5: each of its chunks then
# holds every w of some size, so which worker gets which chunk does not
# change how often a worker refills its caches, and the work counts repeat.
SMOKE_SIZES = {"sweep6": 4, "sweep6-par2": 5, "frob5": 4}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_each_workload_at_reduced_size(name):
    spec = dict(run.WORKLOADS[name], n=SMOKE_SIZES[name])
    result, log = run.measure(spec, seed=3, seconds=0, trace=0)
    assert result["correct"], log
    assert result["attempted"] > 0 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared("end_to_end")}
    assert all(v > 0 for v in result["metrics"].values())

    result, log = run.measure(spec, seed=3, seconds=0, trace=1)
    assert result["correct"], log
    assert len(log["traced_wall_s"]) == 2  # their work counts were compared
    assert log["missing_spans"] == []
    if spec["jobs"] > 1:
        assert log["traced_pool_workers"] == [spec["jobs"]] * 2
    layers = result["metrics"]
    assert layers["sweep.run_case.calls"] == result["attempted"] // 3
    if spec["kind"] == "sweep":
        assert layers["cli.main.calls"] == 1 and layers["cli.json_bytes"] > 0
    else:
        assert layers["frobenius.make_splitting_context.fpow_terms"] > 0
        assert layers["frobenius.reduce.calls"] > 0


def test_every_declared_layer_metric_is_produced_by_some_workload():
    produced = set()
    for name in ("sweep6", "frob5"):
        spec = dict(run.WORKLOADS[name], n=4)
        result, log = run.measure(spec, seed=1, seconds=0, trace=1)
        assert result["correct"], log
        produced |= {k for k, v in result["metrics"].items() if v}
    missing = {m["name"] for m in declared("per_layer")} - produced
    # Every phi(g) of the Frobenius check is already 0, so its division
    # takes no steps; every other figure must show.
    assert missing == {"frobenius.reduce.steps"}


def test_refuses_to_run_without_the_sources():
    # A directory with only BENCHMARK.json and perfbench/, kept in the
    # checkout's ignored build directory.
    bare = HERE.parent / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep6", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def declared(kind: str) -> list:
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)[kind]
