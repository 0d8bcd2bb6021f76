"""Trace-golden determinism: the golden farm's span record, byte for byte.

The normalized span record of the traced golden farm is the
``golden_farm_trace`` row of ``tests/repin.py``
(``tests/data/trace/golden_farm_trace.json``); these tests keep that
record from going hollow.  That installing the sink leaves the farm's
journals byte-identical to the untraced golden is the ``tracing`` row of
``tests/test_knob_invariance.py``.
"""

import json

import pytest

from tests.golden_farm import run_golden_farm
from tests.repin import DATA


@pytest.fixture(scope="module")
def traced_run():
    from repro.obs import TraceSink

    sink = TraceSink()
    farm = run_golden_farm(tracer=sink)
    return farm, sink


class TestTraceGolden:
    def test_trace_covers_the_whole_causal_path(self, traced_run):
        """Sanity floor so the golden cannot silently go hollow: the
        scripted scenario exercises sends, transits, receives, trips,
        stages, deliveries and a crash-recovery replay."""
        _farm, sink = traced_run
        names = {span.name for span in sink.all_spans()}
        for expected in (
            "source.deliver", "deliver", "block", "ack.wait", "transit.IM",
            "transit.EM", "receive", "trip", "stage.classify", "stage.route",
            "deliver.user", "recovery.replay",
        ):
            # (mdc.restart/failover spans need the chaos harness — the
            # scripted farm relaunches its crashed tenant by hand; those
            # names are asserted in test_trace_oracle.py instead.)
            assert expected in names, f"no {expected!r} span in golden farm"
        assert sink.dropped_traces == 0
        assert sink.dropped_spans == 0

    def test_golden_file_is_valid_json_with_normalized_ids(self):
        payload = json.loads((DATA / "trace/golden_farm_trace.json").read_text())
        alert_ids = [
            t["trace_id"] for t in payload["traces"]
            if not t["trace_id"].startswith("lifecycle:")
        ]
        assert alert_ids[:3] == ["A1", "A2", "A3"]
        assert payload["dropped_traces"] == 0
        assert payload["dropped_spans"] == 0
