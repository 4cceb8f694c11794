#!/usr/bin/env python3
"""Time every command of README's "Command line" block through `cli.main`.

All calls run in this one process.  The parser is built once per process,
so its build is timed on its own first.  Then, for each README command, the
script prints its exit code, the time of its first `cli.main` call (cold
action caches: every call builds a fresh action) and the best of
`--repeat` later calls.  It exits 1 when a command exits non-zero or a later
call prints other bytes than the first:

    PYTHONPATH=src python3 scripts/cli_timing.py --repeat 5

It uses only the public API and the standard library.
"""

import argparse
import contextlib
import io
import os
import shlex
import sys
import time
from pathlib import Path

from cantorenv import cli

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("cantorenv ")]


def timed_main(argv: list[str]) -> tuple[float, int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)
    os.chdir(ROOT)

    print(f"{'first ms':>9} {'best later ms':>14}  exit  command")
    t0 = time.perf_counter()
    cli.build_parser()
    print(f"{(time.perf_counter() - t0) * 1e3:9.2f} {'-':>14}  {'-':>4}  "
          "(parser build, once per process)")
    status = 0
    for command in readme_commands():
        first, code, out = timed_main(command)
        later = []
        for _ in range(args.repeat):
            dt, code_again, out_again = timed_main(command)
            later.append(dt)
            if (code_again, out_again) != (code, out):
                print(f"a later call printed other bytes: {shlex.join(command)}")
                status = 1
        if code != 0:
            status = 1
        best = f"{min(later) * 1e3:14.2f}" if later else f"{'-':>14}"
        print(f"{first * 1e3:9.2f} {best}  {code:>4}  {shlex.join(command)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
