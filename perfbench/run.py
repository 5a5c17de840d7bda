"""Outside-in benchmark of the hesscells exhaustive sweep.

    python3 perfbench/run.py --workload sweep6 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each repeat runs in a fresh interpreter
(repeat.py) on the checkout's src/, so the package's process-lifetime
caches start empty as they do for a user.  Repeats run until --seconds
have passed and at least two are done.  With --trace 0 the run prints the
end-to-end metrics of BENCHMARK.json, medians over its repeats, with
times scaled to the reference host speed (repeat.HostSpeed); with
--trace 1 it prints the per-layer metrics of traced repeats, and the
tracing overhead against an untraced one.  Every repeat is checked against
perfbench/pins.json; a run with any wrong output prints no numbers and
exits 1.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repeat import load_pin, pin_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "sweep6": {"kind": "sweep", "n": 6, "jobs": 1},
    "sweep6-par2": {"kind": "sweep", "n": 6, "jobs": 2},
    "frob5": {"kind": "frobenius", "n": 5, "jobs": 1},
}
# Full repeats per run at least: two, so that one slow or fast process does
# not set a run's median alone, and traced work counts can be compared.
MIN_REPEATS = 2
# A run ends well inside the 180 s a run may take.
DEADLINE_S = 170
# Per-layer figures that are times; every other one is a count of work and
# must read the same in every traced repeat.
TIME_SUFFIXES = (".self_s", ".p50_ms", ".p99_ms")


def start_repeat(spec: dict, seed: int, trace: int, deadline: float) -> dict:
    """Run repeat.py once and return its figures, with setup_s and wall_s."""
    cmd = [
        sys.executable, str(HERE / "repeat.py"),
        "--kind", spec["kind"], "--n", str(spec["n"]), "--jobs", str(spec["jobs"]),
        "--seed", str(seed), "--trace", str(trace),
    ]
    # The seed fixes the interpreter's string hashing too, so that a seed
    # reproduces the dict and set layouts of its run.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2**32))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the repeat and its pool workers
        proc.communicate()
        return {"problems": ["repeat ran past the run's deadline"]}
    if proc.returncode != 0:
        return {"problems": [f"repeat exited with {proc.returncode}: {err.strip()[-2000:]}"]}
    res = json.loads(out.splitlines()[-1])
    res["setup_s"] = res["setup_mark"] - spawned
    res["wall_s"] = res["end"] - res["setup_mark"]
    res["elapsed_s"] = time.monotonic() - spawned
    res.setdefault("problems", [])
    return res


def run_repeats(spec: dict, seed: int, seconds: int, trace: int) -> tuple:
    """(untraced repeats, traced repeats).

    Repeats run until --seconds have passed and at least MIN_REPEATS are
    done; traced runs start with one untraced repeat to compare with.
    """
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    if trace:
        plain.append(start_repeat(spec, seed, 0, deadline))
    runs = traced if trace else plain
    while True:
        runs.append(start_repeat(spec, seed, trace, deadline))
        now = time.monotonic()
        if now + 1.5 * runs[-1].get("elapsed_s", 0.0) > deadline:
            break
        if now - start >= seconds and len(runs) >= MIN_REPEATS:
            break
    return plain, traced


def end_to_end(plain: list) -> dict:
    """Medians over the repeats, times scaled to the reference host speed.

    The set-up is too short to time the host's speed in; it takes the
    factor measured in the rest of its repeat.
    """
    def scaled(key):
        return statistics.median(r[key] * r["host_factor"] for r in plain)

    return {
        "setup_s": scaled("setup_s"),
        "wall_s": scaled("wall_s"),
        "cpu_s": scaled("cpu_s"),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
    }


def per_layer(plain: list, traced: list) -> tuple:
    """(per-layer figures, problems): medians of times, counts that repeat."""
    problems = []
    names = sorted(set().union(*(r["layers"] for r in traced)))
    out = {}
    for name in names:
        values = [r["layers"].get(name, 0) for r in traced]
        if name.endswith(TIME_SUFFIXES):
            out[name] = statistics.median(values)
        elif len(set(values)) > 1:
            problems.append(f"work count {name} differs between repeats: {values}")
        else:
            out[name] = values[0]
    json_bytes = {r.get("json_bytes", 0) for r in plain + traced}
    if len(json_bytes) > 1:
        problems.append(f"cli.json_bytes differs between repeats: {sorted(json_bytes)}")
    out["cli.json_bytes"] = json_bytes.pop()
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = plain_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["trace.uncovered_s"] = statistics.median(r["uncovered_s"] for r in traced)
    return out, problems


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "revision": git_revision(),
    }


def git_revision() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(spec: dict, seed: int, seconds: int, trace: int) -> tuple:
    """(result object of the run, figures for the log)."""
    plain, traced = run_repeats(spec, seed, seconds, trace)
    cases = load_pin(pin_key(spec["kind"], spec["n"]))["cases"]
    repeats = plain + traced
    problems = [p for r in repeats for p in r["problems"]]
    failed = sum(cases if r["problems"] else r["failed_cases"] for r in repeats)
    figures = {}
    if not problems:
        if trace:
            figures, problems = per_layer(plain, traced)
        else:
            figures = end_to_end(plain)
    log = {
        "wall_s": [r.get("wall_s") for r in plain],
        "host_factor": [r.get("host_factor") for r in plain],
        "traced_wall_s": [r.get("wall_s") for r in traced],
        "setup_s": [r.get("setup_s") for r in plain],
        "traced_pool_workers": [r.get("workers") for r in traced],
        "missing_spans": sorted({s for r in traced for s in r.get("missing_spans", [])}),
        "problems": problems,
    }
    result = {
        "correct": not problems and failed == 0,
        "attempted": cases * len(repeats),
        "failed": failed,
        "metrics": figures,
    }
    return result, log


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hesscells" / "__init__.py").is_file():
        print(f"error: no hesscells sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    result, log = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, **environment()}))
    print("# " + json.dumps(log))
    figures = result["metrics"]
    if result["correct"]:
        # A layer the workload never reaches reads 0.
        result["metrics"] = {
            m["name"]: {"value": figures.get(m["name"], 0), "unit": m["unit"]}
            for m in declared
        }
        for name, metric in result["metrics"].items():
            print(f"# {name} = {metric['value']} {metric['unit']}")
    else:
        result["metrics"] = {}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
