"""Record the golden ``reference`` engine's counters for the cold workload.

Every job of ``fig8_cold`` is simulated once on the reference engine and
its counters (:data:`jobs.COUNTERS`) are written to
``reference_counters.json`` next to this file, once for the Table 2
graphs and once for a held-out generator seed.  ``run.py`` fails every
cold job whose soa counters differ.  Rerun this only when a change is
meant to alter simulated behaviour; both graph sets take about four
minutes with two workers::

    python3 perfbench/record_reference.py --graph-seeds table2,1 --workers 2
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import env

OUT = Path(__file__).with_name("reference_counters.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph-seeds", default="table2,1",
                        help="comma-separated generator seeds; table2 keeps "
                             "each dataset's own (default table2,1)")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    work = env.new_work_dir("record")
    try:
        env.prepare(work)
        from repro.api import LocalSession

        import jobs as jobs_mod

        recorded: dict[str, dict] = {}
        with LocalSession(num_workers=args.workers,
                          engine="reference") as session:
            for name in args.graph_seeds.split(","):
                graph_seed = None if name == "table2" else int(name)
                jobs = jobs_mod.cold_jobs(graph_seed)
                outcome = session.sweep(jobs)
                print(f"graphs {name}: {len(jobs)} jobs", file=sys.stderr)
                recorded[jobs_mod.graph_key(graph_seed)] = {
                    jobs_mod.COLD_WORKLOAD: {
                        jobs_mod.job_id(job): jobs_mod.counters(stats)
                        for job, stats in zip(jobs, outcome.stats)}}
    finally:
        env.remove_work_dir(work)
    OUT.write_text(json.dumps({"engine": "reference",
                               "counters": list(jobs_mod.COUNTERS),
                               "graph_seeds": recorded},
                              indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
