import math
import re

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
    evaluate,
    evaluate_jet,
    finite_difference_probe,
    parse,
    parse_expression,
    substitute,
)
from nslab import taylor
from nslab.expressions import Bin, Call, Neg, Num, Var, evaluate_series


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

    def test_parentheses_belong_to_the_span(self):
        # a node's span covers its own parentheses, so every snippet is balanced
        e = parse("(x1 - 2)^0.5", ("x1",))
        with pytest.raises(EvaluationDomainError) as err:
            evaluate(e, [1.0])
        assert err.value.snippet == "(x1 - 2)^0.5"
        assert err.value.offset == 0
        e = parse("2*(x1 - 2)", ("x1",))
        assert e.snippet(e.root) == "2*(x1 - 2)"
        assert e.root.right.span == (2, 10)
        assert e.snippet(e.root.right) == "(x1 - 2)"

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

    def test_float_domain_error_reports_subexpression(self):
        # the float path names the subexpression as the series path does
        e = parse_expression("p1 + sqrt(x1)", 2)
        with pytest.raises(EvaluationDomainError, match="sqrt of negative value") as err:
            evaluate(e, [-1, 0, 1, 0])
        assert err.value.snippet == "sqrt(x1)"
        # a central difference whose stencil crosses x1 < 0
        with pytest.raises(EvaluationDomainError) as err:
            finite_difference_probe(e, q([0.0, 0], [1, 0]), (1, 0, 0, 0), 1e-3)
        assert err.value.snippet == "sqrt(x1)"

    @pytest.mark.parametrize("text, x1, snippet", [
        ("exp(x1)", 1000.0, "exp(x1)"),                 # math.exp overflows
        ("sin(x1*1e308*10)", 1.0, "sin(x1*1e308*10)"),  # math.sin meets inf
        ("x1^400*10", 10.0, "x1^400"),                  # float ** overflows
    ])
    def test_math_range_and_domain_errors_are_located(self, text, x1, snippet):
        e = parse_expression(text, 2)
        with pytest.raises(EvaluationDomainError) as err:
            evaluate(e, [x1, 0, 0, 0])
        assert (err.value.snippet, err.value.offset) == (snippet, 0)
        with pytest.raises(EvaluationDomainError) as err:
            finite_difference_probe(e, q([x1, 0], [1, 0]), {"x1": 1}, 1e-3)
        assert err.value.snippet == snippet

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
    def test_substitute(self):
        w = parse("v + x1*v^2", ("x1", "v"))
        repl = parse("sqrt(p1^2 + p2^2)", ("x1", "x2", "p1", "p2"))
        h = substitute(w, "v", repl)
        got = evaluate(h, [2.0, 0.0, 3.0, 4.0])
        assert got == pytest.approx(5.0 + 2.0 * 25.0, rel=1e-14)

    def test_substituted_domain_error_names_its_subexpression(self):
        w = parse("x1 + log(v)", ("x1", "v"))
        h = substitute(w, "v", parse("p1 - 1", ("x1", "p1")))
        assert h.text == "x1 + log((p1 - 1))"
        want = "in subexpression 'log((p1 - 1))' (at offset 5)"
        with pytest.raises(EvaluationDomainError, match=re.escape(want)):
            evaluate(h, [0.0, 0.5])
        ctx = taylor.context(2, 1)
        with pytest.raises(EvaluationDomainError, match=re.escape(want)):
            evaluate_series(h, [ctx.variable(0, 0.0), ctx.variable(1, 0.5)])

    def test_substitute_needs_every_variable_in_the_replacement(self):
        w = parse("v + w", ("w", "v"))
        with pytest.raises(UnknownIdentifierError, match="'w'"):
            substitute(w, "v", parse("p1", ("x1", "p1")))


def test_series_pow_ignores_untrusted_exponent_coefficients():
    # the exponent is constant through its trust; a coefficient above it is
    # cut off with the prefix and must not send a negative base down the
    # exp(b log a) path
    from nslab import taylor
    from nslab.expressions import _SeriesAlgebra

    c = taylor.context(2, 2)
    a = c.variable(0, -1.5)
    b = c.constant(2.0)
    b.coef[c.index[(1, 0)]] = 0.25
    b = b.truncate(0)
    assert b.coef.shape == (c.sizes[0],)
    got = _SeriesAlgebra.pow(a, b)
    assert got.trust == 0
    assert got.coef.shape == (c.sizes[0],)
    assert np.array_equal(got.coef, (a * a).coef[:c.sizes[0]])


def _series_env(variables, values, order=2, batch=()):
    from nslab import taylor

    ctx = taylor.context(len(variables), order)
    return [ctx.variable(i, np.full(batch, float(v))) for i, v in enumerate(values)]


class TestCompiledProgram:
    """evaluate_series replays one flat program per expression."""

    @pytest.fixture
    def products(self, monkeypatch):
        from nslab import taylor

        calls = []
        multiply = taylor.TaylorContext.multiply

        def counted(self, a, b, trust):
            calls.append(trust)
            return multiply(self, a, b, trust)

        monkeypatch.setattr(taylor.TaylorContext, "multiply", counted)
        return calls

    @pytest.mark.parametrize("text, count", [
        ("p1^2", 1),              # the power starts from the base, not from 1 * p1
        ("x1*p2^2/5", 2),         # the literal divisor is a scalar multiply
        ("p2^2 + x1*p2^2", 2),    # p2^2 is formed once
    ])
    def test_products_formed(self, products, text, count):
        e = parse_expression(text, 2)
        values = [0.3, -0.7, 1.1, 0.9]
        got = evaluate_series(e, _series_env(e.variables, values))
        assert len(products) == count
        assert got.value() == pytest.approx(evaluate(e, values), rel=1e-15)
        assert e.program() is e.program()

    def test_literal_divisor_forms_no_reciprocal(self, monkeypatch):
        from nslab import taylor

        calls = []
        reciprocal = taylor.TaylorSeries._reciprocal

        def counted(self):
            calls.append(self)
            return reciprocal(self)

        monkeypatch.setattr(taylor.TaylorSeries, "_reciprocal", counted)
        e = parse_expression("x1*p2^2/5", 2)
        evaluate_series(e, _series_env(e.variables, [0.3, -0.7, 1.1, 0.9]))
        assert calls == []

    @pytest.mark.parametrize("text, value", [("0", 0.0), ("2/5", 0.4)])
    def test_constant_result_is_a_series(self, text, value):
        e = parse_expression(text, 2)
        env = _series_env(e.variables, [0.3, -0.7, 1.1, 0.9], batch=(3,))
        env[0] = env[0].truncate(1)
        got = evaluate_series(e, env)
        assert got.coef.shape == env[0].coef.shape
        assert got.trust == 1
        assert np.all(got.value() == value)
        assert not np.any(got.coef[..., 1:])

    @pytest.mark.parametrize("text, values, snippet, offset", [
        ("log(x1 - 1.5)", [1.5, 0.0], "log(x1 - 1.5)", 0),
        ("x1 + log(0)", [1.0, 0.0], "log(0)", 5),
        ("(x1 - 2)^0.5", [1.0, 0.0], "(x1 - 2)^0.5", 0),
    ])
    def test_domain_error_names_the_subexpression(self, text, values, snippet, offset):
        e = parse(text, ("x1", "x2"))
        with pytest.raises(EvaluationDomainError) as err:
            evaluate_series(e, _series_env(e.variables, values))
        assert err.value.snippet == snippet
        assert err.value.offset == offset

    @pytest.mark.parametrize("text", ["x1 + sqrt(0)", "x1*abs(0)"])
    def test_constant_subtrees_fold_as_floats(self, text):
        # a constant subtree is a number, so it has no derivative to fail on
        e = parse(text, ("x1", "x2"))
        got = evaluate_series(e, _series_env(e.variables, [0.8, 0.1], order=2))
        assert got.value() == evaluate(e, [0.8, 0.1])
        assert got.trust == 2

    def test_inputs_are_never_aliased(self):
        # x1 trusted to 2, x2 to 1: the exponent x2 - x2 + 1 is constant through
        # its trust, and x1^1 must not hand back (and retrust) x1 itself
        texts = ["x1^(x2-x2+1)", "pow(x1, x2-x2+1)", "x1^1", "pow(x1, 1)", "x1^0",
                 "x1^(x2-x2+1)*x2", "x1*1", "1*x1", "x1/1", "x1 + 0", "-x1", "x1^2"]
        env = _series_env(("x1", "x2"), [0.8, 0.1])
        env[1] = env[1].truncate(1)
        before = [(s.coef.copy(), s.trust) for s in env]
        for text in texts:
            evaluate_series(parse(text, ("x1", "x2")), env)
        for s, (coef, trust) in zip(env, before):
            assert s.trust == trust
            assert np.array_equal(s.coef, coef)
        assert env[0].ipow(1) is not env[0]


def test_random_programs_match_float_evaluation():
    """200 random ASTs: the compiled constant term is the float value."""
    from nslab.expressions import Expression

    rng = np.random.default_rng(7)
    variables = ("x1", "x2", "p1", "p2")
    checked = 0
    while checked < 200:
        expr = Expression("<random>", variables,
                          _random_ast(rng, int(rng.integers(1, 6)), len(variables)))
        values = rng.uniform(-1, 1, 4)
        try:
            want = evaluate(expr, values)
        except EvaluationDomainError:
            continue
        got = evaluate_series(expr, _series_env(variables, values, order=1)).value()
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (want, got)
        checked += 1
