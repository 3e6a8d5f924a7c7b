"""Run one `bfdesign` CLI command under the tracer, in its own interpreter.

Usage: python bench/cli_case.py SPANS_NPZ CASE_ID ARGV...

Stdout and the exit code are the command's own; the spans and counters of
the process are written to SPANS_NPZ when the command returns.
"""

from __future__ import annotations

import sys


def main() -> int:
    spans_path, case_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import bfdesign.cli
    from tracer import Instrumentation, Tracer, cache_counters

    tracer = Tracer()
    tracer.case_id = case_id
    with Instrumentation(tracer):
        code = bfdesign.cli.main(argv)
    sys.stdout.flush()
    tracer.counters.update(cache_counters())
    tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
