"""The pinned outputs of tests/data/PINS (line format there), run in-process.

    PYTHONPATH=src python tests/pins.py

runs every line, the deep `ci` checks too, prints each with its time, and
exits 1 when an output or an exit code differs from its pin.
tests/test_pins.py runs every line but the `ci` ones in tier-1.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import os
import runpy
import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


@dataclass(frozen=True)
class Pin:
    ci: bool
    expect: str
    argv: tuple[str, ...]

    def __str__(self) -> str:
        return " ".join(("ci",) * self.ci + (self.expect,) + self.argv)


def read() -> list[Pin]:
    pins = []
    for line in (DATA / "PINS").read_text().splitlines():
        words = shlex.split(line, comments=True)
        if words:
            ci = words[0] == "ci"
            pins.append(Pin(ci, words[ci], tuple(words[ci + 1:])))
    return pins


def run(pin: Pin) -> tuple[int, str]:
    """(exit code, stdout) of the pinned command, from the repository root
    with every group cache cleared."""
    from modcoh import cli, groups
    groups.clear_group_caches()
    program, *args = pin.argv
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            if program == "modcoh":
                code = cli.main(args, out)
            else:
                code = runpy.run_path(str(ROOT / program), run_name="pinned")["main"]()
    finally:
        os.chdir(cwd)
        groups.clear_group_caches()
    return code, out.getvalue()


def check(pin: Pin) -> str | None:
    """None when the pinned command exits 0 with its pinned output, else
    what differs."""
    code, text = run(pin)
    if code != 0:
        return f"exit code {code}"
    if pin.expect.startswith("last:"):
        last = text.splitlines()[-1:]
        return None if last == [pin.expect[len("last:"):]] else f"last line {last}"
    want = (DATA / pin.expect).read_bytes()
    if text.encode() == want:
        return None
    diff = difflib.unified_diff(want.decode().splitlines(), text.splitlines(),
                                pin.expect, "output", lineterm="")
    return "\n".join(list(diff)[:40])


def main() -> int:
    failed = 0
    for pin in read():
        start = time.perf_counter()
        problem = check(pin)
        print(f"{'FAIL' if problem else 'ok':4} {time.perf_counter() - start:7.2f} s  {pin}")
        if problem:
            print(problem)
            failed += 1
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
