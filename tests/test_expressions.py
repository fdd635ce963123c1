import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslab import (
    EvaluationDomainError,
    ExpressionSyntaxError,
    PhasePoint,
    UnknownIdentifierError,
    VariableIndexError,
    derivative,
    evaluate,
    evaluate_jet,
    finite_difference_probe,
    parse,
    parse_expression,
    substitute,
)
from nslab.expressions import Bin, Call, Neg, Num, Var


def q(x, p):
    return PhasePoint(np.asarray(x, float), np.asarray(p, float))


class TestParser:
    def test_grammar_add_pow(self):
        e = parse_expression("p1^2 + p2^2", 2)
        assert isinstance(e.root, Bin) and e.root.op == "+"
        assert isinstance(e.root.left, Bin) and e.root.left.op == "^"

    def test_grammar_sqrt_call(self):
        e = parse_expression("sqrt(p1*p1 + p2*p2)", 2)
        assert isinstance(e.root, Call) and e.root.fn == "sqrt"

    def test_variable_index_out_of_range(self):
        with pytest.raises(VariableIndexError):
            parse_expression("p3", 2)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expression("q1 + p1", 2)

    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("p1 + ", 2)
        assert err.value.offset == 5

    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ", 2)

    def test_precedence_unary_minus_vs_power(self):
        # ^ binds tighter than unary minus; ^ is right-associative
        vals = [0.0, 0.0, 0.0, 0.0]
        assert evaluate(parse_expression("-2^2", 2), vals) == -4.0
        assert evaluate(parse_expression("2^-2", 2), vals) == 0.25
        assert evaluate(parse_expression("2^3^2", 2), vals) == 512.0
        assert evaluate(parse_expression("-p1^2", 2), [0, 0, 3, 0]) == -9.0

    def test_function_arity(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("atan2(p1)", 2)

    def test_whitespace_and_floats(self):
        e = parse_expression(" 1.5e-2 * x1  ", 2)
        assert evaluate(e, [2.0, 0, 0, 0]) == pytest.approx(0.03)


class TestJets:
    def test_momentum_square(self):
        e = parse_expression("p1^2 + p2^2", 2)
        j = evaluate_jet(e, q([0, 0], [3, 4]), 2)
        assert j.value == 25.0
        assert j.d(p1=1) == 6.0
        assert j.d(p1=2) == 2.0
        assert j.d(p1=1, p2=1) == 0.0

    def test_mixed_partial(self):
        e = parse_expression("x1*p2", 2)
        j = evaluate_jet(e, q([1, 2], [3, 4]), 2)
        assert j.d(x1=1, p2=1) == 1.0

    def test_third_order(self):
        e = parse_expression("p1^3", 2)
        j = evaluate_jet(e, q([0, 0], [2, 0]), 3)
        assert j.d(p1=3) == 6.0

    def test_zero_index_is_value(self):
        e = parse_expression("sin(x1) + p2", 2)
        j = evaluate_jet(e, q([0.3, 0], [0, 0.5]), 2)
        assert j.partial((0, 0, 0, 0)) == j.value

    def test_order_cap(self):
        e = parse_expression("p1", 2)
        with pytest.raises(ValueError):
            evaluate_jet(e, q([0, 0], [1, 0]), 4)

    def test_domain_error_reports_subexpression(self):
        e = parse_expression("p1 + sqrt(x1)", 2)
        with pytest.raises(EvaluationDomainError) as err:
            evaluate_jet(e, q([-1, 0], [1, 0]), 1)
        assert "sqrt(x1)" in str(err.value)

    def test_division_by_zero(self):
        e = parse_expression("1/p1", 2)
        with pytest.raises(EvaluationDomainError):
            evaluate(e, [0, 0, 0.0, 1])

    def test_determinism(self):
        e = parse_expression("exp(sin(x1*p2) + cos(p1))", 2)
        point = q([0.37, -1.2], [0.81, 2.5])
        a = evaluate_jet(e, point, 3)
        b = evaluate_jet(e, point, 3)
        assert a.partials == b.partials


class TestFiniteDifferenceProbe:
    def test_linear(self):
        e = parse_expression("p1^2", 2)
        v = finite_difference_probe(e, q([0, 0], [3, 0]), {"p1": 1}, 1e-4)
        assert v == pytest.approx(6.0, abs=1e-7)

    def test_second(self):
        e = parse_expression("sin(x1)", 2)
        v = finite_difference_probe(e, q([0, 0], [1, 1]), {"x1": 2}, 1e-4)
        assert v == pytest.approx(0.0, abs=1e-5)

    def test_mixed(self):
        e = parse_expression("x1*p1", 2)
        v = finite_difference_probe(e, q([1, 0], [1, 0]), {"x1": 1, "p1": 1}, 1e-4)
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_step(self):
        e = parse_expression("p1", 2)
        with pytest.raises(ValueError):
            finite_difference_probe(e, q([0, 0], [1, 0]), {"p1": 1}, 0.0)


def _random_ast(rng, depth, nvars):
    leaves = [lambda: Num((0, 0), round(rng.uniform(-2, 2), 3)),
              lambda: Var((0, 0), f"v{rng.integers(nvars)}", int(rng.integers(nvars)))]
    if depth == 0:
        return leaves[rng.integers(2)]()
    kind = rng.integers(8)
    if kind <= 1:
        return leaves[kind]()
    if kind == 2:
        return Neg((0, 0), _random_ast(rng, depth - 1, nvars))
    if kind <= 5:
        op = "+-*"[rng.integers(3)]
        return Bin((0, 0), op, _random_ast(rng, depth - 1, nvars),
                   _random_ast(rng, depth - 1, nvars))
    if kind == 6:
        fn = ["sin", "cos", "exp"][rng.integers(3)]
        inner = Bin((0, 0), "*", Num((0, 0), 0.3), _random_ast(rng, depth - 1, nvars))
        return Call((0, 0), fn, (inner,))
    # guarded division: denominator bounded away from zero
    den = Bin((0, 0), "+", Num((0, 0), 1.5),
              Call((0, 0), "sin", (_random_ast(rng, depth - 1, nvars),)))
    return Bin((0, 0), "/", _random_ast(rng, depth - 1, nvars), den)


def test_random_expressions_match_finite_differences():
    """200 random depth<=5 ASTs: every order<=2 jet partial matches the probe."""
    from nslab.expressions import Expression

    rng = np.random.default_rng(42)
    nvars = 4
    variables = ("x1", "x2", "p1", "p2")
    checked = 0
    while checked < 200:
        expr = Expression("<random>", variables,
                          _random_ast(rng, int(rng.integers(2, 6)), nvars))
        point = q(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        try:
            jet = evaluate_jet(expr, point, 2)
        except EvaluationDomainError:
            continue
        if abs(jet.value) > 1e3:
            continue
        for mi in jet.partials:
            if sum(mi) == 0 or sum(mi) > 2:
                continue
            fd = finite_difference_probe(expr, point, mi, 1e-4)
            tol = max(1e-5, 1e-5 * abs(jet.partials[mi]))
            assert abs(jet.partials[mi] - fd) <= tol, (mi, jet.partials[mi], fd)
        checked += 1


@settings(max_examples=60, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 2), st.floats(-2, -0.1))
def test_jet_symmetry_and_value(a, b, c, d):
    e = parse_expression("exp(0.3*x1*p1) + x2*p2^2", 2)
    j = evaluate_jet(e, q([a, b], [c, d]), 3)
    # multi-index keying makes permutation symmetry structural; check the
    # value against plain evaluation instead
    assert j.value == pytest.approx(math.exp(0.3 * a * c) + b * d * d, rel=1e-12)
    assert j.partial((1, 0, 1, 0)) == j.partial({"x1": 1, "p1": 1})


class TestAstUtilities:
    def test_symbolic_derivative(self):
        e = parse("x1*v^2 + sin(v)", ("x1", "v"))
        dv = derivative(e, "v")
        got = evaluate(dv, [2.0, 0.7])
        assert got == pytest.approx(2 * 2.0 * 0.7 + math.cos(0.7), rel=1e-14)

    def test_substitute(self):
        w = parse("v + x1*v^2", ("x1", "v"))
        repl = parse("sqrt(p1^2 + p2^2)", ("x1", "x2", "p1", "p2"))
        h = substitute(w, "v", repl)
        got = evaluate(h, [2.0, 0.0, 3.0, 4.0])
        assert got == pytest.approx(5.0 + 2.0 * 25.0, rel=1e-14)

    @pytest.mark.parametrize("text", ["abs(x1)", "tan(x1)", "atan2(x1, v)",
                                      "log(1 + x1^2)", "pow(1 + x1^2, 1.5)"])
    def test_derivative_matches_probe(self, text):
        e = parse(text, ("x1", "v"))
        de = derivative(e, "x1")
        for pt in ([0.4, 0.9], [-0.7, 1.3]):
            fd = finite_difference_probe(e, pt, (1, 0), 1e-5)
            assert evaluate(de, pt) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_series_pow_ignores_untrusted_exponent_coefficients():
    # the exponent is constant through its trust; garbage above it must not
    # send a negative base down the exp(b log a) path
    from nslab import taylor
    from nslab.expressions import _SeriesAlgebra

    c = taylor.context(2, 2)
    a = c.variable(0, -1.5)
    b = c.constant(2.0)
    b.coef[c.index[(1, 0)]] = 0.25
    b.trust = 0
    got = _SeriesAlgebra.pow(a, b)
    assert np.array_equal(got.coef, (a * a).coef)
    assert got.trust == 0
