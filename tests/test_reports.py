"""Report payload serialization round trips."""

import json

from sumsetlab import groups
from sumsetlab.reports import (
    LawReport,
    subset_from_payload,
    subset_payload,
)
from sumsetlab.setops import FiniteSubset


def test_subset_payload_round_trip(any_backend):
    S = FiniteSubset.from_keys(any_backend, any_backend.ball_keys(2))
    payload = subset_payload(S)
    assert payload["backend"] == any_backend.spec
    assert subset_from_payload(payload) == S
    # payloads are JSON-able as-is
    assert subset_from_payload(json.loads(json.dumps(payload))) == S


def test_subset_payload_labels_are_format_key(any_backend):
    S = any_backend.ball(3)
    expected = [any_backend.format_key(k) for k in S.keys]
    # the second payload reads every label from the backend's memo
    for _ in range(2):
        assert subset_payload(S)["elements"] == expected
    assert subset_payload(S)["elements"] is not subset_payload(S)["elements"]


def test_label_memo_stops_growing_at_the_ball_element_cap(monkeypatch):
    backend = groups.LatticeBackend(2)
    S = backend.ball(2)
    monkeypatch.setattr(groups, "BALL_ELEMENT_CAP", 5)
    expected = [backend.format_key(k) for k in S.keys]
    for _ in range(2):
        assert subset_payload(S)["elements"] == expected
    assert list(backend._labels) == list(S.keys[:5])


def test_law_report_dict_round_trip():
    report = LawReport("kempermann", "holds", 3, {"A": {"backend": "zd:1", "elements": ["(0)"]}}, "")
    again = LawReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert again == report


def test_law_report_defaults():
    report = LawReport.from_dict({"law": "uvk", "verdict": "skipped"})
    assert report.slack is None
    assert report.witness == {}
    assert report.detail == ""
