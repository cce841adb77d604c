"""Run ``repro serve`` in this process, optionally under the tracer.

Started by run.py for the served-report workload with the environment it
pinned.
With ``--trace-out`` every target in :data:`tracing.TARGETS` is wrapped
before the daemon starts, and the spans are written to that file when
the daemon shuts down.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        from tracing import Tracer
        tracer = Tracer().install()
    from repro.cli import main as repro_main
    try:
        return repro_main(["serve", "--socket", args.socket,
                           "--cache-dir", args.cache_dir,
                           "--jobs", "1", "--engine", "soa"])
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
