"""The slow checks in one command: each check that tier 1 leaves out for
its time, run in a subprocess of its own with a timeout.

    python tests/slow.py            # the default set, a few minutes
    python tests/slow.py --full     # adds the n = 7 runs and the line trace
    python tests/slow.py --list     # names the checks, runs none

The default set is `sweep_digest.py` at n = 5 and 6 with `--jobs 1` and
`--jobs 2`, every `frobenius_digest.py` pin, `sweep_identities.py` and
`gb_certificates.py` at n = 6, and perfbench's own suite.  `--full` adds
the n = 7 digests, `sweep_identities.py` and `gb_certificates.py` at
n = 7, and `line_trace.py`.  Each check runs from the root of the checkout
with PYTHONPATH=src, in a session of its own, so that a timeout kills its
sweep and pool workers too.  It prints one line per check (name, verdict,
seconds), and under a failed check the last lines of its output.  It
exits 1 when any gating check fails or times out.  perfbench's suite is
reported but does not gate: four of its self-tests fail on spans that no
workload reaches any more (ROADMAP item 1).
"""

import argparse
import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from frobenius_digest import PINS as FROBENIUS_PINS  # noqa: E402


def checks(full: bool) -> list:
    """(name, argv, timeout in seconds, gating) of each check to run."""
    py, tests = sys.executable, str(ROOT / "tests")
    digest_ns = (5, 6, 7) if full else (5, 6)
    out = [(f"sweep_digest n={n} jobs={jobs}",
            [py, f"{tests}/sweep_digest.py", "--max-n", str(n), "--jobs", str(jobs)],
            120 * 4 ** (n - 5), True)
           for n in digest_ns for jobs in (1, 2)]
    out += [(f"frobenius_digest n={n} p={p}",
             [py, f"{tests}/frobenius_digest.py", "--n", str(n), "--p", str(p)], 300, True)
            for n, p in FROBENIUS_PINS]
    for n in (6, 7) if full else (6,):
        out += [(f"sweep_identities max-n={n}",
                 [py, f"{tests}/sweep_identities.py", "--max-n", str(n), "--jobs", "2"],
                 600, True),
                (f"gb_certificates max-n={n}",
                 [py, f"{tests}/gb_certificates.py", "--max-n", str(n)], 900, True)]
    if full:
        out.append(("line_trace", [py, f"{tests}/line_trace.py"], 1800, True))
    out.append(("perfbench suite",
                [py, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"], 600, False))
    return out


def run(argv: list, timeout: float) -> tuple:
    """(exit code or None on a timeout, combined output) of argv."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
            return proc.returncode, out
        except subprocess.TimeoutExpired:
            _kill_session(proc)
            return None, proc.communicate()[0]
        except BaseException:  # an interrupt does not reach the check's session
            _kill_session(proc)
            raise


def _kill_session(proc) -> None:
    """Kill proc's whole session: the check, its sweep and their workers."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="add the n = 7 runs and the line trace")
    parser.add_argument("--list", action="store_true",
                        help="name the checks, run none")
    args = parser.parse_args(argv)
    failed = False
    for name, check_argv, timeout, gating in checks(args.full):
        if args.list:
            print(f"{name}{'' if gating else ' (not gating)'}")
            continue
        start = time.monotonic()
        code, out = run(check_argv, timeout)
        seconds = time.monotonic() - start
        if code == 0:
            verdict = "pass"
        else:
            verdict = f"TIMEOUT after {timeout} s" if code is None else f"FAIL (exit {code})"
            failed |= gating
            verdict += "" if gating else ", not gating"
        print(f"{name:<32} {verdict:<24} {seconds:8.1f} s", flush=True)
        if code != 0:
            for line in out.strip().splitlines()[-5:]:
                print(f"    {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
