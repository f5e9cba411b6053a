"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage (from the root of a checkout)::

    python3 perfbench/serve_launcher.py SPANS_PATH [repro serve options]

The wrappers of :mod:`tracing` are installed before the server imports
anything, spans stay in memory, and they are written to ``SPANS_PATH``
once the server has drained and returned (SIGTERM or ``/v1/drain``).
"""

from __future__ import annotations

import sys

import common
import tracing


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: serve_launcher.py SPANS_PATH [serve options]",
              file=sys.stderr)
        return 2
    spans_path, serve_args = argv[0], argv[1:]
    try:
        common.require_program()
    except common.ProgramMissing as exc:
        print(f"serve_launcher: {exc}", file=sys.stderr)
        return 2
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
