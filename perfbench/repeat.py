"""One repeat of a benchmark workload, in a fresh interpreter.

run.py starts this script with PYTHONPATH set to the checkout's src/, so
the set-up it measures starts with the interpreter.  It prints one JSON
object: CLOCK_MONOTONIC timestamps of the set-up mark (the case list is
built, no case has run) and of the end of the work, the CPU time and peak
resident memory of that window, the host's speed over it against the
reference speed (untraced repeats only), and the correctness problems
found.

    python3 perfbench/repeat.py --kind sweep --n 6 --jobs 1 --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import sys
import tempfile
import time
from multiprocessing import util as mp_util
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
FROBENIUS_PRIMES = (2, 3)
# The calibration loop is timed every TICK_S seconds of the measured window.
TICK_S = 0.1
# Median CPU time of one calibration loop on the 2-CPU Xeon host the
# README's figures come from: the speed that `host_factor` refers to.
REFERENCE_LOOP_S = 1.9e-3


def pin_key(kind: str, n: int) -> str:
    return f"{kind}-n{n}"


def report_digest(doc: dict) -> str:
    """SHA-256 of the report as the CLI prints it, without elapsedSeconds."""
    doc = {k: v for k, v in doc.items() if k != "elapsedSeconds"}
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


def check_report(text: str, pin: dict) -> list:
    """Problems with a printed report against its pin; empty when correct.

    The text must be exactly what `json.dumps(doc, indent=2)` prints, so the
    digest of the parsed document covers every byte but elapsedSeconds.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if json.dumps(doc, indent=2) + "\n" != text:
        problems.append("report is not in the CLI's JSON layout")
    summary = doc.get("summary", {})
    if summary.get("ok") is not True:
        problems.append(f"summary.ok is {summary.get('ok')!r}")
    for key in ("cases", "fixedPointCases"):
        if summary.get(key) != pin[key]:
            problems.append(f"summary.{key} is {summary.get(key)!r}, pinned {pin[key]}")
    digest = report_digest(doc)
    if digest != pin["sha256"]:
        problems.append(f"report digest {digest} differs from the pinned {pin['sha256']}")
    return problems


def usage() -> tuple:
    """(CPU seconds of this process, of its reaped children, peak RSS in MiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime,
            max(me.ru_maxrss, kids.ru_maxrss) / 1024)


def calibration_loop() -> int:
    """Fixed pure-Python work, interpreter-bound like the workloads."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


class HostSpeed:
    """Times `calibration_loop` every TICK_S seconds of a window.

    The host's speed drifts by up to 1.9x within minutes, and each CPU on
    its own.  The loop runs from a SIGALRM handler in the measuring thread,
    between the work's own bytecodes, so it meets the CPU the work meets.
    Pool workers forked inside the window time the loop too, and write
    their figures to `<dump_dir>/speed-<pid>.json` when they exit.  The
    loops take a fixed share of the window, so they are left in its times.
    """

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.loops = 0
        self.cpu_s = 0.0
        mp_util.register_after_fork(self, HostSpeed._start_worker)

    def tick(self, *_):
        cpu = time.thread_time()
        calibration_loop()
        self.cpu_s += time.thread_time() - cpu
        self.loops += 1

    def start(self):
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def _start_worker(self):
        self.loops, self.cpu_s = 0, 0.0
        self.start()
        mp_util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self):
        self.stop()
        path = os.path.join(self.dump_dir, f"speed-{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump([self.loops, self.cpu_s], f)

    def merge_worker_dumps(self) -> int:
        """Add the workers' loops to this process's; returns the count."""
        names = [n for n in os.listdir(self.dump_dir) if n.startswith("speed-")]
        for name in names:
            with open(os.path.join(self.dump_dir, name)) as f:
                loops, cpu_s = json.load(f)
            self.loops += loops
            self.cpu_s += cpu_s
        return len(names)

    def factor(self) -> float:
        """Reference loop time over the measured one: above 1 on a slow host."""
        return REFERENCE_LOOP_S * self.loops / self.cpu_s


class Marks:
    """The set-up mark and the end of the work, with resource use at each,
    and with a HostSpeed, the host's speed in between."""

    def __init__(self, speed: HostSpeed | None):
        self.speed = speed
        self.setup = None

    def set_up(self):
        self.setup = (time.monotonic(), usage())
        if self.speed is not None:
            self.speed.start()

    def result(self) -> dict:
        end, (cpu, child_cpu, rss) = time.monotonic(), usage()
        _, (cpu0, child_cpu0, _) = self.setup
        res = {
            "setup_mark": self.setup[0],
            "end": end,
            "cpu_s": cpu + child_cpu - cpu0 - child_cpu0,
            "peak_rss_mib": rss,
        }
        if self.speed is not None:
            self.speed.stop()
            res["workers"] = self.speed.merge_worker_dumps()
            res["host_factor"] = self.speed.factor()
        return res


def mark_case_list(sweep_mod, marks: Marks) -> None:
    """Call marks.set_up once the sweep has built its case list.

    The mark sits at the end of `sweep._case_args`.  Without that helper the
    repeat fails: a sweep built another way needs the set-up mark placed
    anew, in a change to this benchmark of its own.
    """
    build = getattr(sweep_mod, "_case_args", None)
    if build is None:
        raise SystemExit("hesscells.sweep._case_args is gone: no set-up mark")

    def marked(*args, **kwargs):
        yield from build(*args, **kwargs)
        marks.set_up()

    sweep_mod._case_args = marked


def run_sweep(n, jobs, marks, tracer):
    """`hesscells sweep --max-n n --jobs jobs --format json` through cli.main."""
    sweep_mod = importlib.import_module("hesscells.sweep")
    cli = importlib.import_module("hesscells.cli")
    mark_case_list(sweep_mod, marks)
    main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
    out = io.StringIO()
    call = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", "--max-n", str(n), "--jobs", str(jobs), "--format", "json"])
    res = marks.result()
    res["call_s"] = time.perf_counter() - call
    text = out.getvalue()
    problems = [] if code == 0 else [f"cli.main returned {code}"]
    problems += check_report(text, load_pin(pin_key("sweep", n)))
    if problems:
        return dict(res, problems=problems)
    doc = json.loads(text)
    # The bytes of elapsedSeconds vary from run to run; the rest must not.
    res.update(
        cases=doc["summary"]["cases"],
        failed_cases=doc["summary"]["failedCases"],
        json_bytes=len(text.encode()) - len(json.dumps(doc["elapsedSeconds"])),
        problems=problems,
    )
    return res


def frobenius_cases(n: int):
    hesscells = importlib.import_module("hesscells")
    return [
        (h.values, w.images)
        for h in hesscells.enumerate_hessenberg(n, indecomposable_only=True)
        for w in hesscells.all_permutations(n)
    ]


def run_frobenius(n, seed, marks):
    """Every size-n case through sweep.run_case with Frobenius checks at
    p = 2 and 3, in an order shuffled by the seed; the report keeps
    enumeration order."""
    sweep_mod = importlib.import_module("hesscells.sweep")
    cases = frobenius_cases(n)
    opts = sweep_mod.SweepOptions(frobenius_primes=FROBENIUS_PRIMES)
    order = list(range(len(cases)))
    random.Random(seed).shuffle(order)
    marks.set_up()
    call = time.perf_counter()
    results = [None] * len(cases)
    for i in order:
        h, w = cases[i]
        results[i] = sweep_mod.run_case((h, w, opts))
    doc = {
        "n": n,
        "frobeniusPrimes": list(FROBENIUS_PRIMES),
        "cases": results,
        "summary": {
            "cases": len(results),
            "fixedPointCases": sum(1 for c in results if c["fixedPoint"]),
            "failedCases": sum(1 for c in results if not c["ok"]),
            "ok": all(c["ok"] for c in results),
        },
    }
    res = marks.result()
    res["call_s"] = time.perf_counter() - call
    text = json.dumps(doc, indent=2) + "\n"
    res.update(
        cases=doc["summary"]["cases"],
        failed_cases=doc["summary"]["failedCases"],
        problems=check_report(text, load_pin(pin_key("frobenius", n))),
    )
    return res


def load_pin(key: str) -> dict:
    with open(PINS) as f:
        return json.load(f)[key]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kind", choices=("sweep", "frobenius"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    importlib.import_module("hesscells.cli")
    dump_root = HERE.parent / ".bench_build"
    dump_root.mkdir(exist_ok=True)
    dump_dir = tempfile.mkdtemp(prefix="perfbench-", dir=dump_root)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(dump_dir)
        missing = spans.install(tracer)
    # Traced repeats run no calibration loops, which would land inside spans.
    marks = Marks(None if args.trace else HostSpeed(dump_dir))
    if args.kind == "sweep":
        res = run_sweep(args.n, args.jobs, marks, tracer)
    else:
        res = run_frobenius(args.n, args.seed, marks)
    if tracer is not None:
        res["uncovered_s"] = res["call_s"] - tracer.self_seconds()
        res["workers"] = tracer.merge_worker_dumps()
        res["layers"] = tracer.metrics()
        res["missing_spans"] = missing
        # A binding that is gone would read as a layer that did no work.
        res["problems"] += [f"no binding {name} to trace" for name in missing]
    # sweep() falls back to serial work when it cannot start its pool; every
    # worker it forks reports its figures.
    if args.jobs > 1 and res["workers"] != args.jobs:
        res["problems"].append(f"{res['workers']} pool workers reported, not {args.jobs}")
    shutil.rmtree(dump_dir)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
