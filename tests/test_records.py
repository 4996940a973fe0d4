"""JSON shape of the report records.

Each record's to_dict is its dataclass fields in declaration order, with
tuples turned into lists.  The literals below, dicts and dumps bytes
alike, were recorded from the hand-written to_dict methods the shared
base replaced.
"""

import pytest

from displace.calculus import DerivativeResult, FtcReport
from displace.displacement import AxiomReport, BallInterval, GammaEstimate
from displace.gauge import DistinguishedSets
from displace.serialize import Record, dumps
from displace.solver import JumpRecord, ResidualReport

CASES = [
    (DerivativeResult(value=None, point_class="excluded", error_estimate=0.0,
                      samples_used=0),
     {"value": None, "point_class": "excluded", "error_estimate": 0.0,
      "samples_used": 0},
     '{"value": null, "point_class": "excluded", "error_estimate": 0, '
     '"samples_used": 0}'),
    (DerivativeResult(value=1.0 / 3.0, point_class="jump",
                      error_estimate=2.5e-17, samples_used=2),
     {"value": 0.3333333333333333, "point_class": "jump",
      "error_estimate": 2.5e-17, "samples_used": 2},
     '{"value": 0.33333333333333331, "point_class": "jump", '
     '"error_estimate": 2.4999999999999999e-17, "samples_used": 2}'),
    (FtcReport(max_error=1e-7, worst_point=0.25, checked=3,
               excluded=(0.5, 0.625),
               violations=({"point": 0.75,
                            "reason": "gauge increments vanish"},)),
     {"max_error": 1e-07, "worst_point": 0.25, "checked": 3,
      "excluded": [0.5, 0.625],
      "violations": [{"point": 0.75, "reason": "gauge increments vanish"}]},
     '{"max_error": 9.9999999999999995e-08, "worst_point": 0.25, '
     '"checked": 3, "excluded": [0.5, 0.625], "violations": [{"point": '
     '0.75, "reason": "gauge increments vanish"}]}'),
    (FtcReport(max_error=0.0, worst_point=None, checked=1, excluded=()),
     {"max_error": 0.0, "worst_point": None, "checked": 1, "excluded": [],
      "violations": []},
     '{"max_error": 0, "worst_point": null, "checked": 1, "excluded": [], '
     '"violations": []}'),
    (AxiomReport("H2'", "fail", ({"x": 0.0, "y": 2.0, "z": 3.0},), 64, 1e-9,
                 {"violations": 1, "exhaustive": True}),
     {"hypothesis": "H2'", "verdict": "fail",
      "witnesses": [{"x": 0.0, "y": 2.0, "z": 3.0}], "sample_count": 64,
      "tolerance": 1e-09, "stats": {"violations": 1, "exhaustive": True}},
     '{"hypothesis": "H2\'", "verdict": "fail", "witnesses": [{"x": 0, '
     '"y": 2, "z": 3}], "sample_count": 64, "tolerance": '
     '1.0000000000000001e-09, "stats": {"violations": 1, "exhaustive": '
     'true}}'),
    (AxiomReport("H1", "pass", (), 101, 1e-9),
     {"hypothesis": "H1", "verdict": "pass", "witnesses": [],
      "sample_count": 101, "tolerance": 1e-09, "stats": {}},
     '{"hypothesis": "H1", "verdict": "pass", "witnesses": [], '
     '"sample_count": 101, "tolerance": 1.0000000000000001e-09, '
     '"stats": {}}'),
    (GammaEstimate(z=0.25, zbar=0.75, value=2.718281828459045, grid=256),
     {"z": 0.25, "zbar": 0.75, "value": 2.718281828459045, "grid": 256},
     '{"z": 0.25, "zbar": 0.75, "value": 2.7182818284590451, "grid": 256}'),
    (BallInterval(lo=0.0, hi=0.5, lo_closed=True, hi_closed=False),
     {"lo": 0.0, "hi": 0.5, "lo_closed": True, "hi_closed": False},
     '{"lo": 0, "hi": 0.5, "lo_closed": true, "hi_closed": false}'),
    (DistinguishedSets(d_set=(0.25, 1.0), c_set=((0.5, 0.75),),
                       n_set=(0.5, 0.75)),
     {"d_set": [0.25, 1.0], "c_set": [[0.5, 0.75]], "n_set": [0.5, 0.75]},
     '{"d_set": [0.25, 1], "c_set": [[0.5, 0.75]], "n_set": [0.5, 0.75]}'),
    (DistinguishedSets(d_set=(), c_set=(), n_set=()),
     {"d_set": [], "c_set": [], "n_set": []},
     '{"d_set": [], "c_set": [], "n_set": []}'),
    (JumpRecord(tau=0.3, u_before=1.0, u_after=1.5),
     {"tau": 0.3, "u_before": 1.0, "u_after": 1.5},
     '{"tau": 0.29999999999999999, "u_before": 1, "u_after": 1.5}'),
    (ResidualReport(max_residual=3e-12, worst_point=0.1, grid=101),
     {"max_residual": 3e-12, "worst_point": 0.1, "grid": 101},
     '{"max_residual": 3.0000000000000001e-12, "worst_point": '
     '0.10000000000000001, "grid": 101}'),
]


@pytest.mark.parametrize("record, expected, text", CASES,
                         ids=[f"{type(c[0]).__name__}-{i}"
                              for i, c in enumerate(CASES)])
def test_to_dict_and_dumps_match_recorded_literals(record, expected, text):
    payload = record.to_dict()
    assert payload == expected
    assert list(payload) == list(expected)
    assert type(payload) is dict and all(
        not isinstance(v, tuple) for v in payload.values())
    assert dumps(payload) == text


def test_every_record_type_serializes_through_the_base():
    types = {type(record) for record, _, _ in CASES}
    assert len(types) == 8
    for cls in types:
        assert issubclass(cls, Record)
        assert "to_dict" not in vars(cls)


def test_to_dict_copies_mutable_values():
    report = AxiomReport("H1", "pass", ({"x": 0.0},), 2, 1e-9, {"n": 1})
    payload = report.to_dict()
    payload["stats"]["n"] = 2
    payload["witnesses"][0]["x"] = 1.0
    assert report.stats == {"n": 1}
    assert report.witnesses == ({"x": 0.0},)
