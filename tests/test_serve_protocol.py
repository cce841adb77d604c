"""The serve wire protocol: codec round-trips, version gating, job form."""

import json

import numpy as np
import pytest

from repro.accel import higraph, higraph_mini
from repro.errors import ProtocolError, ProtocolVersionError
from repro.graph.csr import CSRGraph
from repro.serve import protocol
from repro.sweep.jobs import GraphSpec, SweepJob


def roundtrip(msg):
    return protocol.decode(protocol.encode(msg))


class TestCodec:
    @pytest.mark.parametrize("msg", [
        protocol.Ping(),
        protocol.Sweep(jobs=[{"x": 1}]),
        protocol.QueryStatus(),
        protocol.RegenReport(results_dir="r", sections=["fig8"], charts=True,
                             scale="0.02"),
        protocol.Reload(),
        protocol.Shutdown(),
        protocol.Pong(protocol=3, code_version="abc"),
        protocol.StatusReply(executed=1, cache_hits=3, deduped=1, workers=2),
        protocol.Progress(done=1, total=3, job="BFS/VT"),
        protocol.SweepDone(stats=[{"gteps": 1.0}], cache_hits=2, deduped=1,
                           job_seconds=[0.5]),
        protocol.ReportDone(results_dir="r", report_path="r/REPORT.md",
                            provenance_path="r/REPORT.provenance.json"),
        protocol.Reloaded(code_version="abc", changed=True),
        protocol.ShuttingDown(),
        protocol.Error(code="bad-request", message="nope"),
    ])
    def test_roundtrip_every_message_type(self, msg):
        assert roundtrip(msg) == msg

    def test_one_line_versioned_json(self):
        raw = protocol.encode(protocol.Ping())
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        payload = json.loads(raw)
        assert payload["v"] == protocol.PROTOCOL_VERSION
        assert payload["type"] == "ping"

    def test_version_mismatch_rejected_before_type(self):
        # even an unknown type must be diagnosed as a version problem
        # first, so incompatible peers always get the right error
        line = json.dumps({"v": 999, "type": "no-such-type"})
        with pytest.raises(ProtocolVersionError, match="999"):
            protocol.decode(line)

    def test_missing_version_rejected(self):
        with pytest.raises(ProtocolVersionError):
            protocol.decode(json.dumps({"type": "ping"}))

    def test_unknown_type_rejected(self):
        line = json.dumps({"v": protocol.PROTOCOL_VERSION, "type": "zap"})
        with pytest.raises(ProtocolError, match="zap"):
            protocol.decode(line)

    @pytest.mark.parametrize("type_name", [
        "cache_info", "cache_gc", "cache_info_reply", "cache_gc_reply"])
    def test_retired_cache_verb_is_an_unknown_type(self, type_name):
        """The daemon's cache verbs left the wire with protocol 2;
        ``repro cache info|gc --cache-dir`` does their work."""
        assert type_name not in protocol._MESSAGE_TYPES
        line = json.dumps({"v": protocol.PROTOCOL_VERSION,
                           "type": type_name})
        with pytest.raises(ProtocolError, match=type_name):
            protocol.decode(line)

    @pytest.mark.parametrize("type_name", [
        "submit_sweep", "submitted", "fetch_sweep", "stream_progress"])
    def test_retired_ticket_verb_is_an_unknown_type(self, type_name):
        """Tickets left the wire with protocol 6: a ``sweep`` request is
        answered on its own connection."""
        assert type_name not in protocol._MESSAGE_TYPES
        line = json.dumps({"v": protocol.PROTOCOL_VERSION,
                           "type": type_name})
        with pytest.raises(ProtocolError, match=type_name):
            protocol.decode(line)

    def test_line_limit_holds_one_job_on_the_largest_design_graph(self):
        """The reader's limit fits the base64 arrays of one inline job on
        the largest graph the design holds."""
        from repro.accel.config import DESIGN_MAX_EDGES, DESIGN_MAX_VERTICES
        words = 2 * DESIGN_MAX_EDGES + DESIGN_MAX_VERTICES + 1
        assert 4 * -(-words * 8 // 3) < protocol.MAX_LINE_BYTES

    def test_bad_fields_rejected(self):
        line = json.dumps({"v": protocol.PROTOCOL_VERSION, "type": "ping",
                           "unexpected": 1})
        with pytest.raises(ProtocolError, match="ping"):
            protocol.decode(line)

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b"{not json\n")
        with pytest.raises(ProtocolError):
            protocol.decode(json.dumps([1, 2]))

    def test_unregistered_object_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode(object())


class TestJobWire:
    def test_spec_job_roundtrip_preserves_cache_key(self):
        job = SweepJob(graph=GraphSpec("VT", scale=0.25, seed=7),
                       algorithm="PR", algorithm_kwargs={"iterations": 3},
                       config=higraph(), source=2, max_iterations=9,
                       num_slices=2, offchip_bytes_per_cycle=32.0,
                       engine="reference", tags={"dataset": "VT"})
        back = protocol.job_from_wire(protocol.job_to_wire(job))
        assert back.cache_key("v1") == job.cache_key("v1")
        assert back.tags == job.tags
        assert back.algorithm_kwargs == {"iterations": 3}

    def test_wire_form_is_json_serializable(self):
        job = SweepJob(graph=GraphSpec("R14", scale=0.02), algorithm="BFS",
                       config=higraph_mini())
        json.dumps(protocol.job_to_wire(job))   # must not raise

    def test_inline_csr_roundtrip_preserves_cache_key(self):
        graph = CSRGraph(offsets=np.array([0, 2, 3, 3], dtype=np.int64),
                         dst=np.array([1, 2, 0], dtype=np.int64),
                         weights=np.array([1, 4, 2], dtype=np.int64),
                         name="tiny")
        job = SweepJob(graph=graph, algorithm="BFS", config=higraph())
        wire = json.loads(json.dumps(protocol.job_to_wire(job)))
        back = protocol.job_from_wire(wire)
        assert back.cache_key("v1") == job.cache_key("v1")
        assert isinstance(back.graph, CSRGraph)
        np.testing.assert_array_equal(back.graph.dst, graph.dst)

    def test_defaulted_fields_round_trip(self):
        job = SweepJob(graph=GraphSpec("VT"), algorithm="SSSP",
                       config=higraph())
        back = protocol.job_from_wire(protocol.job_to_wire(job))
        assert back.engine is None
        assert back.num_slices == 1
        assert back.max_iterations is None

    def test_unknown_config_key_rejected(self):
        """A config key the code does not have (say, from a peer that
        still speaks an older protocol) makes the job malformed; it is
        not silently dropped."""
        wire = protocol.job_to_wire(SweepJob(graph=GraphSpec("VT"),
                                             algorithm="BFS",
                                             config=higraph()))
        wire["config"]["no_such_field"] = 1
        with pytest.raises(ProtocolError, match="no_such_field"):
            protocol.job_from_wire(wire)

    def test_malformed_job_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.job_from_wire("not a dict")
        with pytest.raises(ProtocolError):
            protocol.job_from_wire({"graph": {"kind": "martian"},
                                    "algorithm": "BFS", "config": {}})
        with pytest.raises(ProtocolError):
            protocol.job_from_wire({"algorithm": "BFS"})
