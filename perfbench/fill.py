"""Fill a result cache in a process of its own (a set-up step of run.py).

A cold ``LocalSession.report`` over every section into RESULTS_DIR, the
cache the served-report workload's daemon then answers from.  It fails
(exit 3) when the compiled kernel does not load, because the fill would
then simulate on a slower path than the one being measured.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--results-dir", required=True)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    from repro.accel.engine import soakernel
    from repro.api import LocalSession

    if soakernel.load_kernel() is None:
        print("fill: the soa kernel did not load", file=sys.stderr)
        return 3
    with LocalSession(cache_dir=args.cache_dir,
                      num_workers=args.workers) as session:
        session.report(args.results_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
