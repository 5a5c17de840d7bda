"""Golden CLI outputs: every README command, plus a few more paths, in
both output formats, must reproduce byte for byte with the same exit code.

Each file in tests/golden/ holds one run: a first line `exit: <code>`,
then the command's stdout verbatim.  The sweep report's elapsedSeconds
value is the one timing field, so its value is masked before comparing.

To write the files (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "patch-gens": "patch-gens --n 4 --w 4321",
    "cell-gens": "cell-gens --n 4 --w 3421",
    "cell-gens-h": "cell-gens --n 4 --w 3421 --h 3,3,4,4",
    "ideal-cell": "ideal --n 4 --w 3421 --h 3,3,4,4 --kind cell",
    "ideal-patch-w0": "ideal --n 4 --w 4321 --h 3,3,4,4 --kind patch",
    "fixed-points": "fixed-points --n 4 --h 4,4,4,4",
    "gb-check-oracle": "gb-check --n 4 --w 3421 --h 3,3,4,4 --oracle",
    "gb-check-oracle-nonfixed": "gb-check --n 4 --w 3421 --h 2,3,4,4 --oracle",
    "hilbert": "hilbert --n 4 --w 3421 --h 3,3,4,4 --trunc 20",
    "paving": "paving --n 4 --h 3,3,4,4",
    "frobenius-check": "frobenius-check --n 4 --w 3421 --h 3,3,4,4 --p 3",
    "sweep-frobenius": "sweep --max-n 4 --frobenius 2,3",
    "sweep": "sweep --max-n 4",
}

CASES = [(name, fmt) for name in COMMANDS for fmt in ("text", "json")]

_ELAPSED = re.compile(r'("elapsedSeconds": )[^\n,}]+')


def run_cli(argv):
    """Exit code and stdout of one in-process CLI run, timing masked."""
    from hesscells.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit: {code}\n" + _ELAPSED.sub(r'\1"<masked>"', out.getvalue())


def golden_path(name, fmt):
    return GOLDEN / f"{name}.{fmt}.txt"


def argv_for(name, fmt):
    return COMMANDS[name].split() + ["--format", fmt]


@pytest.mark.parametrize("name,fmt", CASES)
def test_cli_output_matches_golden(name, fmt):
    expected = golden_path(name, fmt).read_text()
    assert run_cli(argv_for(name, fmt)) == expected


def test_sweep_digest_hashes_the_masked_report():
    # tests/sweep_digest.py, run outside the suite, pins n = 7; at n = 4 its
    # digest is the golden JSON report's, less the `exit:` line
    from sweep_digest import digest

    report = golden_path("sweep", "json").read_text().split("\n", 1)[1]
    assert digest(4, 1) == (0, hashlib.sha256(report.encode()).hexdigest())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, fmt in CASES:
        golden_path(name, fmt).write_text(run_cli(argv_for(name, fmt)))
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)
