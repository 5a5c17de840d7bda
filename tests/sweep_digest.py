"""One SHA-256 over the JSON report of `hesscells sweep`, timing masked.

    PYTHONPATH=src python tests/sweep_digest.py --max-n 7 --jobs 2

It runs `sweep --max-n N --format json --jobs J` in a fresh interpreter,
masks the report's elapsedSeconds value with tests/test_golden.py's
pattern, and hashes the masked stdout as it streams, with no `exit:` line
(so n = 4 hashes to the SHA-256 of the golden sweep.json.txt less its
first line).  The 240 MB report of n = 7 is never held.  It prints the
digest and, where PINS holds one for N, whether the two match; it exits
1 on a mismatch or when the sweep exits non-zero.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

from test_golden import _ELAPSED

ROOT = Path(__file__).resolve().parent.parent
# max_n -> the masked digest of the sweep's report, the same at every --jobs
PINS = {
    5: "a57aa8741d1b71d65a6bec1b53119f8045dc14711afd254c539767613b4a30ad",
    6: "20d547e01bd71301ba1b636731cba58a3dce417377e9a2c76b9e4a424a390fd1",
    7: "f917bccf14edcf692f89fbf0c6196f32c485d65f5a3a16f4f309d3edd45023a7",
}


def digest(max_n: int, jobs: int) -> tuple:
    """(the sweep's exit code, SHA-256 hex digest of its masked stdout)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "hesscells.cli", "sweep", "--max-n", str(max_n),
           "--format", "json", "--jobs", str(jobs)]
    sha = hashlib.sha256()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env) as proc:
        # the pattern stops at a newline, so masking line by line masks
        # what masking the whole report would
        for line in proc.stdout:
            sha.update(_ELAPSED.sub(r'\1"<masked>"', line.decode()).encode())
    return proc.returncode, sha.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-n", type=int, default=7, dest="max_n")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    code, hexdigest = digest(args.max_n, args.jobs)
    pin = PINS.get(args.max_n)
    verdict = "no pin" if pin is None else "matches the pin" if hexdigest == pin else (
        f"MISMATCH, pinned {pin}")
    print(f"max_n = {args.max_n}, jobs = {args.jobs}: exit {code}, "
          f"sha256 {hexdigest} ({verdict})")
    return 1 if code or (pin is not None and hexdigest != pin) else 0


if __name__ == "__main__":
    sys.exit(main())
