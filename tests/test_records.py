"""The record contract: JSON shape, repr, equality, hash, immutability.

Each record's to_dict is its fields in declaration order, with tuples
turned into lists.  The literals below, dicts and dumps bytes alike,
were recorded from the hand-written to_dict methods the shared base
replaced; the repr strings were recorded from the frozen dataclasses
the records were before they became plain Record subclasses.
"""

import math
import pickle

import numpy as np
import pytest

from displace.calculus import DerivativeResult, FtcReport, MeasurePath
from displace.displacement import AxiomReport, BallInterval, GammaEstimate
from displace.expr import Binary, Call, Const, Expr, Num, Unary, Var, parse
from displace.gauge import DistinguishedSets, Gauge
from displace.serialize import FrozenRecordError, Record, dumps
from displace.solver import (IvpProblem, IvpSolution, JumpRecord,
                             ResidualReport, SurfaceProblem)

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


GAUGE = Gauge.identity()

# (record, its fields in order, its repr)
REPRS = [
    (Num(0.5), ["value"], "Num(value=0.5)"),
    (Var("t"), ["name"], "Var(name='t')"),
    (Const("pi"), ["name"], "Const(name='pi')"),
    (Unary("-", Num(2.0)), ["op", "operand"],
     "Unary(op='-', operand=Num(value=2.0))"),
    (Binary("^", Var("t"), Num(3.0)), ["op", "left", "right"],
     "Binary(op='^', left=Var(name='t'), right=Num(value=3.0))"),
    (Call("min", (Var("t"), Const("e"))), ["func", "args"],
     "Call(func='min', args=(Var(name='t'), Const(name='e')))"),
    (parse("sqrt(t) + 1", {"t"}), ["ast", "source", "variables", "free"],
     "Expr(ast=Binary(op='+', left=Call(func='sqrt', args=(Var(name='t'),)), "
     "right=Num(value=1.0)), source='sqrt(t) + 1', "
     "variables=frozenset({'t'}), free=frozenset({'t'}))"),
    (DerivativeResult(0.25, "continuity", 1e-12, 7),
     ["value", "point_class", "error_estimate", "samples_used"],
     "DerivativeResult(value=0.25, point_class='continuity', "
     "error_estimate=1e-12, samples_used=7)"),
    (MeasurePath(math.sin), ["alpha", "description"],
     "MeasurePath(alpha=<built-in function sin>, description='')"),
    (FtcReport(0.0, None, 1, (), ({"point": 0.75, "reason": "r"},)),
     ["max_error", "worst_point", "checked", "excluded", "violations"],
     "FtcReport(max_error=0.0, worst_point=None, checked=1, excluded=(), "
     "violations=({'point': 0.75, 'reason': 'r'},))"),
    (AxiomReport("H1", "pass", (), 101, 1e-9),
     ["hypothesis", "verdict", "witnesses", "sample_count", "tolerance",
      "stats"],
     "AxiomReport(hypothesis='H1', verdict='pass', witnesses=(), "
     "sample_count=101, tolerance=1e-09, stats={})"),
    (GammaEstimate(0.25, 0.75, 2.718281828459045, 256),
     ["z", "zbar", "value", "grid"],
     "GammaEstimate(z=0.25, zbar=0.75, value=2.718281828459045, grid=256)"),
    (BallInterval(0.0, 0.5, True, False),
     ["lo", "hi", "lo_closed", "hi_closed"],
     "BallInterval(lo=0.0, hi=0.5, lo_closed=True, hi_closed=False)"),
    (DistinguishedSets((0.25,), ((0.5, 0.75),), (0.5, 0.75)),
     ["d_set", "c_set", "n_set"],
     "DistinguishedSets(d_set=(0.25,), c_set=((0.5, 0.75),), "
     "n_set=(0.5, 0.75))"),
    (IvpProblem(GAUGE, math.hypot, 1.0, (0.0, 0.5)),
     ["gauge", "rhs", "u0", "interval"],
     f"IvpProblem(gauge={GAUGE!r}, rhs=<built-in function hypot>, u0=1.0, "
     "interval=(0.0, 0.5))"),
    (SurfaceProblem(GAUGE, math.sin, 0.25),
     ["work_gauge", "source", "terminal_value", "interval"],
     f"SurfaceProblem(work_gauge={GAUGE!r}, source=<built-in function sin>, "
     "terminal_value=0.25, interval=None)"),
    (JumpRecord(0.3, 1.0, 1.5), ["tau", "u_before", "u_after"],
     "JumpRecord(tau=0.3, u_before=1.0, u_after=1.5)"),
    (IvpSolution(np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.5, 2.0]),
                 (JumpRecord(0.5, 1.25, 1.5),), "euler", 0.5),
     ["ts", "us", "jumps", "method", "max_step"],
     "IvpSolution(ts=array([0. , 0.5, 1. ]), us=array([1. , 1.5, 2. ]), "
     "jumps=(JumpRecord(tau=0.5, u_before=1.25, u_after=1.5),), "
     "method='euler', max_step=0.5)"),
    (ResidualReport(3e-12, 0.1, 101), ["max_residual", "worst_point", "grid"],
     "ResidualReport(max_residual=3e-12, worst_point=0.1, grid=101)"),
]
IDS = [type(record).__name__ for record, _, _ in REPRS]


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("displace."):
            yield sub
        yield from _record_classes(sub)


def test_every_record_class_has_a_contract_case():
    assert {type(record) for record, _, _ in REPRS} == set(_record_classes())
    assert len(REPRS) == 19


@pytest.mark.parametrize("record, fields, text", REPRS, ids=IDS)
def test_repr_and_field_order_are_the_recorded_ones(record, fields, text):
    assert repr(record) == text
    if not isinstance(record, IvpSolution):  # arrays have no to_dict shape
        assert list(record.to_dict()) == fields


@pytest.mark.parametrize("record, fields, text", REPRS, ids=IDS)
def test_equality_and_hash_go_over_the_fields(record, fields, text):
    values = [getattr(record, name) for name in fields]
    twin = type(record)(**dict(zip(fields, values)))
    assert type(record)(*values) == twin
    assert twin == record and not twin != record
    # the last field differs (with arrays first, == of the firsts is ambiguous)
    assert record != type(record)(*values[:-1], object())
    assert record != tuple(values)
    try:
        expected = hash(tuple(values))
    except TypeError:   # a dict or an array among the fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected


@pytest.mark.parametrize("record, fields, text", REPRS, ids=IDS)
def test_records_are_frozen(record, fields, text):
    before = repr(record)
    with pytest.raises(FrozenRecordError,
                       match=f"cannot assign to field '{fields[0]}'"):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(FrozenRecordError,
                       match=f"cannot delete field '{fields[-1]}'"):
        delattr(record, fields[-1])
    assert repr(record) == before
    assert issubclass(FrozenRecordError, AttributeError)


def test_constructor_takes_fields_by_position_or_keyword_with_defaults():
    assert MeasurePath(math.sin, description="d") == MeasurePath(math.sin, "d")
    assert FtcReport(0.0, None, 1, ()).violations == ()
    with pytest.raises(TypeError, match="takes 2 positional arguments"):
        MeasurePath(math.sin, "d", 3)
    with pytest.raises(TypeError, match="missing argument 'grid'"):
        GammaEstimate(0.25, 0.75, 1.0)
    with pytest.raises(TypeError, match="unexpected or repeated argument "
                       "'alpha'"):
        MeasurePath(math.sin, alpha=math.cos)
    with pytest.raises(TypeError, match="unexpected or repeated argument "
                       "'step'"):
        JumpRecord(0.3, 1.0, 1.5, step=1)


def test_axiom_report_stats_is_fresh_per_instance():
    first = AxiomReport("H1", "pass", (), 2, 1e-9)
    second = AxiomReport("H1", "pass", (), 2, 1e-9)
    assert first.stats == second.stats == {}
    assert first.stats is not second.stats
    first.stats["n"] = 1
    assert second.stats == {}


def test_expr_pickles_after_evaluation_without_its_compiled_code():
    expr = parse("sqrt(t) + 1", {"t"})
    assert expr(t=4.0) == 3.0
    assert expr._code   # compiled functions do not pickle
    loaded = pickle.loads(pickle.dumps(expr))
    assert loaded == expr and hash(loaded) == hash(expr)
    assert loaded._code == {}
    assert loaded(t=9.0) == 4.0
    assert "_code" not in repr(expr)
