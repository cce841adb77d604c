"""§5.3 Discussion — large-graph slicing with double buffering.

"the graph can be partitioned into small slices, so that each slice is
processed on chip ... the time consumed in the replacement of slices
can be overlapped using double buffer design."

The bench compares single-buffered (all loads exposed) against
double-buffered execution of a sliced run.  The sliced run is a sweep
job (``slicing_jobs``), so it shards and caches like every other figure
and the report pipeline can regenerate it from a warm cache without
simulating.
"""


def test_discussion_slicing_double_buffer(section):
    rows = section("discussion_slicing")

    row = rows[0]
    assert row["slices"] == 4
    # double buffering hides a large part of the replacement traffic
    assert row["exposed_load_cycles"] < row["raw_load_cycles"]
    assert row["double_buffer_total"] < row["single_buffer_total"]
