"""The 7-point Gauss-Kronrod panel of ftc_forward_check's running integral.

gauge._qk7 is the G3K7 rule with dqk21's error formula.  Its 30-digit
constants must integrate the monomials of [-1, 1] exactly, in rational
arithmetic, through degree 11 (the Gauss part through degree 5).  A
running integral whose _gauss is gauge._K7 keeps a K7 panel only where
_adaptive_quad would accept it as a first panel, and is otherwise
_adaptive_quad itself, bit for bit.  Only the running integral that
ftc_forward_check differentiates takes that rule; the work it saves is
counted here by a spy around the panel functions.
"""

import ast
import inspect
import math
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import displace.expr as expr_mod  # noqa: E402
import displace.gauge as gauge_mod  # noqa: E402
from displace.calculus import (CumulativeStieltjesIntegral,  # noqa: E402
                               ftc_forward_check, stieltjes_integral)
from displace.expr import as_function, parse  # noqa: E402
from displace.gauge import Gauge, GaugeError, _adaptive_quad  # noqa: E402


def _literals() -> dict:
    """The decimal text of each module-level number in gauge.py."""
    source = inspect.getsource(gauge_mod)
    texts = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, float)):
            texts[node.targets[0].id] = ast.get_source_segment(source,
                                                                node.value)
    return texts


def _moment_errors(rule, degrees):
    """|sum of w * x^k - integral of x^k over [-1, 1]| for each k, in
    exact arithmetic; rule holds (x, w) pairs, x >= 0, and a node x > 0
    stands for the pair -x, x."""
    errors = []
    for k in degrees:
        total = Fraction(0)
        for x, w in rule:
            total += w * (x ** k if x == 0 else x ** k + (-x) ** k)
        exact = Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
        errors.append(abs(total - exact))
    return errors


def test_the_k7_constants_integrate_monomials_exactly():
    texts = _literals()
    exact = {name: Fraction(texts[name]) for name in
             ("_K0", "_K1", "_K2", "_KW0", "_KW1", "_KW2", "_KWC",
              "_KG1", "_KGC")}
    # each float is the double nearest its 30 digits
    for name, value in exact.items():
        assert len(texts[name]) == 32, name
        assert getattr(gauge_mod, name) == float(value), name
    k0, k1, k2 = exact["_K0"], exact["_K1"], exact["_K2"]
    kronrod = [(k0, exact["_KW0"]), (k1, exact["_KW1"]),
               (k2, exact["_KW2"]), (Fraction(0), exact["_KWC"])]
    gauss = [(k1, exact["_KG1"]), (Fraction(0), exact["_KGC"])]
    bound = Fraction(1, 10 ** 28)
    assert all(e <= bound for e in _moment_errors(kronrod, range(12)))
    assert all(e <= bound for e in _moment_errors(gauss, range(6)))
    # and no further: these are the 7-point and the 3-point rule
    assert _moment_errors(kronrod, [12])[0] > Fraction(1, 10 ** 6)
    assert _moment_errors(gauss, [6])[0] > Fraction(1, 10 ** 3)


# ---------------------------------------------------------------------------
# the rule on random panels
# ---------------------------------------------------------------------------

# a K7 panel kept lies within this multiple of max(tol, 1e-12 * |value|)
# of _adaptive_quad's value: each of the two is within its own error
# estimate, which passed that bound
K7_TOLERANCE = 2.0

_coef = st.integers(-200, 200).map(lambda n: n / 64)


@st.composite
def smooth_fs(draw):
    """The text of a sum of sin, exp and t^k terms, with no affine part."""
    terms = []
    for kind, c, a in draw(st.lists(st.tuples(
            st.sampled_from(["sin", "exp", "pow"]), _coef,
            st.integers(1, 12).map(lambda n: n / 4)), min_size=1,
            max_size=4)):
        if kind == "sin":
            terms.append(f"{c!r}*sin({a!r}*t + {c!r})")
        elif kind == "exp":
            terms.append(f"{c!r}*exp({a / 3!r}*t)")
        else:
            terms.append(f"{c!r}*t^{int(a * 4) % 4 + 2}")
    # exp keeps f from being affine even where every c is 0
    return " + ".join(terms) + " + exp(t)"


@st.composite
def gauges(draw):
    a = draw(st.sampled_from([-1.0, 0.0, 0.5]))
    b = a + draw(st.sampled_from([1.0, 2.0]))
    kind = draw(st.sampled_from(["affine", "vee", "exp"]))
    m = a + (b - a) * draw(st.integers(1, 7)) / 8
    if kind == "affine":
        density = f"{draw(_coef) ** 2 + 0.5!r} + {draw(_coef) ** 2!r}*t" \
            if a >= 0 else "1 + 0.5*abs(t)"
    elif kind == "vee":
        density = f"1 + 3*max(0, abs(t - {m!r}) - 0.125)"
    else:
        density = "exp(t)"
    taus = sorted(set(draw(st.lists(st.integers(0, 16), max_size=3))))
    jumps = [[a + (b - a) * k / 16, 0.25 + k / 32] for k in taus]
    return Gauge.from_dict({"domain": [a, b], "density": density,
                            "jumps": jumps})


@st.composite
def panels(draw, a: float, b: float):
    """(lo, hi) inside [a, b], from 1e-9 wide to the whole domain."""
    if draw(st.integers(0, 3)) == 0:
        return a, b
    width = (b - a) * 10.0 ** draw(st.floats(-9.0, 0.0))
    lo = a + (b - a - width) * draw(st.floats(0.0, 1.0))
    return lo, min(lo + width, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f_source=smooth_fs(), g=gauges(), data=st.data())
def test_a_k7_panel_is_kept_near_qk21_or_is_qk21_itself(f_source, g, data):
    f = as_function(parse(f_source, {"t"}), "t")
    F = CumulativeStieltjesIntegral(f, g)
    assert F._gauss is None
    F._gauss = gauge_mod._K7
    lo, hi = data.draw(panels(*g.domain))
    assert hi > lo
    want = _adaptive_quad(F.fn, lo, hi, F.tol)
    with mock.patch.object(gauge_mod, "_adaptive_quad",
                           wraps=_adaptive_quad) as fallback:
        got = F._panel(lo, hi)
    if fallback.call_count:
        assert got.hex() == want.hex()
    else:
        bound = K7_TOLERANCE * max(F.tol, 1e-12 * abs(want))
        assert abs(got - want) <= bound, (lo, hi, got, want)


def test_a_non_finite_k7_panel_raises_the_adaptive_text():
    g = Gauge.from_dict({"domain": [0, 1.8], "density": "1"})
    huge = as_function(parse("1" + "0" * 308 + "*t", {"t"}), "t")
    F = CumulativeStieltjesIntegral(huge, g)
    F._gauss = gauge_mod._K7
    # 1e308 * t is finite at each node, up to 1.764e308, and the sums of
    # the node pairs, 1.8e308, are not
    assert math.isfinite(F.fn(0.9 + 0.9 * gauge_mod._K0))
    assert not math.isfinite(gauge_mod._qk7(F.fn, 0.0, 1.8)[0])
    with pytest.raises(GaugeError) as want:
        _adaptive_quad(F.fn, 0.0, 1.8, F.tol)
    with pytest.raises(GaugeError) as got:
        F(1.8)
    assert str(got.value) == str(want.value) == (
        "non-finite integral over [0.0, 1.8]")


# ---------------------------------------------------------------------------
# the work, counted
# ---------------------------------------------------------------------------

def _counting_product():
    """A stand-in for expr._product that counts each integrand's calls."""
    calls = {}
    product = expr_mod._product

    def make(f, density):
        fn = product(f, density)

        def counted(t):
            calls[counted] += 1
            return fn(t)
        calls[counted] = 0
        return counted
    return make, calls


def _panel_spy(name, panels):
    """A stand-in for gauge's name that records each panel's integrand."""
    rule = getattr(gauge_mod, name)

    def spy(f, a, b):
        panels.append(f)
        return rule(f, a, b)
    return spy


def test_ftc_running_integral_takes_k7_panels_and_nothing_else_does():
    # the pipeline's f against its flat family: a piecewise-affine density
    # with a declared flat and atoms on both sides of it
    g = Gauge.from_dict({"domain": [0, 1],
                         "density": "2.1*max(0, abs(t - 0.52) - 0.08)",
                         "jumps": [[0.2, 0.4], [0.81, 0.7]],
                         "flats": [[0.44, 0.6]]})
    f = as_function(parse("1.37*sin(t) + -0.42*t^2", {"t"}), "t")
    make, calls = _counting_product()
    k7, qk21 = [], []
    with mock.patch.object(expr_mod, "_product", make), \
            mock.patch.object(gauge_mod, "_qk7", _panel_spy("_qk7", k7)), \
            mock.patch.object(gauge_mod, "_qk21",
                              _panel_spy("_qk21", qk21)), \
            mock.patch.object(gauge_mod, "_adaptive_quad",
                              wraps=_adaptive_quad) as fallback:
        report = ftc_forward_check(f, g, grid=21)
    assert report.max_error <= 1e-6 and not report.violations
    (integrand, used), = calls.items()
    assert set(k7) == {integrand} and set(qk21) <= {integrand}
    assert used == 7 * len(k7) + 21 * len(qk21)
    refused = fallback.call_count
    assert len(k7) > 100 and len(k7) - refused >= 0.99 * len(k7)

    # a bare running integral and stieltjes_integral keep QK21
    assert CumulativeStieltjesIntegral(f, g)._gauss is None
    k7.clear()
    with mock.patch.object(gauge_mod, "_qk7", _panel_spy("_qk7", k7)), \
            mock.patch.object(gauge_mod, "_qk21",
                              wraps=gauge_mod._qk21) as spy:
        stieltjes_integral(f, g, 0.9)
    assert not k7 and spy.call_count > 0


def test_an_affine_f_in_ftc_keeps_its_two_point_panels():
    g = Gauge.from_dict({"domain": [0, 1], "density": "1 + t",
                         "jumps": [[0.5, 0.25]]})
    t = as_function(parse("t", {"t"}), "t")
    with mock.patch.object(gauge_mod, "_qk7",
                           wraps=gauge_mod._qk7) as k7, \
            mock.patch.object(gauge_mod, "_qk21",
                              wraps=gauge_mod._qk21) as qk21:
        report = ftc_forward_check(t, g, grid=11)
    assert k7.call_count == qk21.call_count == 0
    assert report.max_error <= 1e-8 and not report.violations
