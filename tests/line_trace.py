"""Line trace of the tier-1 suite: each executable line of src/hesscells
that no test runs.

    python tests/line_trace.py [pytest arguments]

It runs pytest on the tier-1 suite in this process under `sys.settrace`,
recording the lines of the frames whose file is under src/hesscells, and
prints per module each line that `co_lines` marks executable but that
never ran, with its text.  Extra arguments go to pytest as they are, e.g.
`-k sweep`.  A line listed in `ALLOWED` may stay unrun: each entry, keyed
by file and stripped line text, excuses one such line and says why.  It
exits 1 when any other line never ran, else 0, whatever the tests give.
It is not part of tier 1: the trace makes the suite about four times
slower.

Pool workers that a test forks are not traced, so code only they run is
listed; the serial paths run the same phase-A code.
"""

import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hesscells"

# (file name, stripped line text) -> why the line may stay unrun
ALLOWED = {
    ("groebner.py", "raise _FieldOverflow"):
        "`_packed_check`'s guard on an S-polynomial term: the exponents there "
        "reach twice the top input exponent, and `_field_bits` leaves room for "
        "four times it, so it cannot fire at that width; only a test that narrows "
        "the width reaches it (`_divide`'s line of the same text runs)",
}


def executable_lines(path: Path) -> dict:
    """Line number -> text of each line that a code object of `path` runs."""
    text = path.read_text()
    codes, lines = [compile(text, str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    source = text.splitlines()
    return {line: source[line - 1].strip() for line in lines}


def main(argv: list) -> int:
    sys.path.insert(0, str(SRC.parent))  # so each traced frame names its file in full
    import pytest

    ran = defaultdict(set)  # file name -> line numbers run
    src = str(SRC)

    def trace_lines(frame, event, arg):
        if event in ("line", "call"):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(src):
            return trace_lines(frame, event, arg)
        return None

    sys.settrace(trace_calls)
    try:
        pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                     str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    total, excused = 0, []
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = []
        allowed = {text for name, text in ALLOWED if name == path.name}
        for line in sorted(lines.keys() - ran[str(path)]):
            if lines[line] in allowed:
                allowed.discard(lines[line])  # one line per entry
                excused.append((path.name, line, lines[line]))
            else:
                missed.append(line)
        total += len(missed)
        print(f"\n{path.relative_to(ROOT)}: {len(missed)} lines never run")
        for line in missed:
            print(f"  {line:4d}  {lines[line]}")
    print(f"\n{len(excused)} lines never run, as `ALLOWED` lets them:")
    for name, line, text in excused:
        print(f"  {name}:{line}  {text}\n        {ALLOWED[name, text]}")
    for name, text in ALLOWED.keys() - {(name, text) for name, _, text in excused}:
        print(f"  (entry unused: every line {text!r} of {name} ran)")
    print(f"\n{total} other executable lines of src/hesscells never run")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
