import math

import numpy as np
import pytest

from nslab import taylor
from nslab.errors import EvaluationDomainError


def ctx(nvars=2, order=4):
    return taylor.context(nvars, order)


class TestRing:
    def test_product_coefficients(self):
        c = ctx()
        x = c.variable(0, 2.0)
        y = c.variable(1, 3.0)
        f = (x + y) * (x - y)   # x^2 - y^2
        assert f.value() == pytest.approx(4.0 - 9.0)
        assert f.partial((2, 0)) == 2.0
        assert f.partial((0, 2)) == -2.0
        assert f.partial((1, 1)) == 0.0

    def test_integer_powers(self):
        c = ctx()
        x = c.variable(0, -1.5)
        f = x.ipow(3)
        assert f.value() == pytest.approx((-1.5) ** 3)
        assert f.partial((1, 0)) == pytest.approx(3 * 1.5 ** 2)
        g = x.ipow(-2)
        assert g.value() == pytest.approx(1.5 ** -2)

    def test_division(self):
        c = ctx()
        x = c.variable(0, 2.0)
        f = 1.0 / (1.0 + x)
        assert f.value() == pytest.approx(1 / 3)
        assert f.partial((1, 0)) == pytest.approx(-1 / 9)
        with pytest.raises(EvaluationDomainError):
            _ = 1.0 / c.variable(0, 0.0)

    def test_trust_drops_with_differentiation(self):
        c = ctx(order=3)
        x = c.variable(0, 1.0)
        f = (x * x * x).partial_series(0)
        assert f.trust == 2
        assert f.value() == 3.0
        with pytest.raises(ValueError):
            f.partial((3, 0))

    def test_scalar_broadcast_with_batch(self):
        c = ctx(order=2)
        x = c.variable(0, np.array([1.0, 2.0]))
        f = x * np.array([10.0, 20.0]) + 1.0
        assert np.allclose(f.value(), [11.0, 41.0])
        assert np.allclose(f.partial((1, 0)), [10.0, 20.0])


class TestElementaryFunctions:
    @pytest.mark.parametrize("fn,ref,dref", [
        ("sqrt", math.sqrt, lambda u: 0.5 / math.sqrt(u)),
        ("exp", math.exp, math.exp),
        ("log", math.log, lambda u: 1 / u),
        ("sin", math.sin, math.cos),
        ("cos", math.cos, lambda u: -math.sin(u)),
        ("tan", math.tan, lambda u: 1 / math.cos(u) ** 2),
    ])
    def test_values_and_derivatives(self, fn, ref, dref):
        c = ctx()
        u0 = 0.7
        s = getattr(c.variable(0, u0), fn)()
        assert s.value() == pytest.approx(ref(u0), rel=1e-14)
        assert s.partial((1, 0)) == pytest.approx(dref(u0), rel=1e-12)

    def test_domain_errors(self):
        c = ctx()
        with pytest.raises(EvaluationDomainError):
            c.variable(0, -1.0).sqrt()
        with pytest.raises(EvaluationDomainError):
            c.variable(0, 0.0).log()
        with pytest.raises(EvaluationDomainError):
            c.variable(0, 0.0).absolute()

    def test_abs_away_from_zero(self):
        c = ctx()
        s = c.variable(0, -2.5).absolute()
        assert s.value() == 2.5
        assert s.partial((1, 0)) == -1.0

    def test_atan2_branches(self):
        c = ctx()
        for (y0, x0) in [(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (2.0, 0.5)]:
            y = c.variable(0, y0)
            x = c.variable(1, x0)
            s = taylor.atan2_series(y, x)
            assert s.value() == pytest.approx(math.atan2(y0, x0), rel=1e-14)
            den = x0 * x0 + y0 * y0
            assert s.partial((1, 0)) == pytest.approx(x0 / den, rel=1e-12)
            assert s.partial((0, 1)) == pytest.approx(-y0 / den, rel=1e-12)

    def test_real_power(self):
        c = ctx()
        s = c.variable(0, 2.0).powc(1.5)
        assert s.value() == pytest.approx(2.0 ** 1.5, rel=1e-14)
        assert s.partial((1, 0)) == pytest.approx(1.5 * 2.0 ** 0.5, rel=1e-12)


class TestMatrixInverse:
    def test_inverse_of_series_matrix(self):
        c = ctx(nvars=2, order=3)
        x = c.variable(0, 0.3)
        y = c.variable(1, -0.2)
        m = [[1.0 + x * y, y], [x, 2.0 + x]]
        inv = taylor.series_matrix_inverse(m)
        for i in range(2):
            for j in range(2):
                acc = m[i][0] * inv[0][j] + m[i][1] * inv[1][j]
                expect = 1.0 if i == j else 0.0
                assert acc.value() == pytest.approx(expect, abs=1e-14)
                assert abs(acc.partial((1, 0))) < 1e-13
                assert abs(acc.partial((1, 1))) < 1e-13


def dense_product(c, a, b, t):
    """Brute-force truncated product over all monomial pairs, through degree t."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i, mi in enumerate(c.monomials):
        for j, mj in enumerate(c.monomials):
            m = tuple(u + v for u, v in zip(mi, mj))
            if sum(m) <= t:
                out[..., c.index[m]] += a[..., i] * b[..., j]
    return out


PRODUCT_CONTEXTS = [(2, 4), (4, 3), (6, 2), (6, 5)]


class TestTruncatedProduct:
    @pytest.mark.parametrize("nvars,order", PRODUCT_CONTEXTS)
    def test_matches_dense_reference_at_every_trust(self, nvars, order):
        c = taylor.TaylorContext(nvars, order)
        rng = np.random.default_rng(nvars * 10 + order)
        above = c.degrees > np.arange(order + 1)[:, None]
        for t in range(order + 1):
            a, b = rng.normal(size=(2, c.size))
            got = c.multiply(a, b, t)
            ref = dense_product(c, a, b, t)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.all(got[above[t]] == 0.0)
            # a leading batch axis on one or both factors
            batch = rng.normal(size=(3, c.size))
            for x, y in ((batch, b), (a, batch), (batch, batch[::-1])):
                got = c.multiply(x, y, t)
                ref = dense_product(c, x, y, t)
                assert got.shape == (3, c.size)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
                assert np.all(got[:, above[t]] == 0.0)

    def test_series_product_is_zero_above_trust(self):
        c = ctx(nvars=2, order=4)
        x = c.variable(0, 0.5)
        y = c.variable(1, -1.5)
        y.trust = 2
        f = (x + y).ipow(3) * x.exp()
        assert f.trust == 2
        assert np.all(f.coef[c.degrees > 2] == 0.0)
        assert f.partial((1, 1)) == pytest.approx(
            dense_product(c, (x + y).ipow(3).coef, x.exp().coef, 2)[c.index[(1, 1)]],
            rel=1e-12)

    @pytest.mark.parametrize("nvars,order", PRODUCT_CONTEXTS + [(3, 0), (1, 3)])
    def test_tables_match_brute_force(self, nvars, order):
        c = taylor.TaylorContext(nvars, order)
        mons = []
        for deg in range(order + 1):
            mons += sorted(m for m in np.ndindex(*(order + 1,) * nvars) if sum(m) == deg)
        assert c.monomials == mons
        assert c.index == {m: i for i, m in enumerate(mons)}
        assert c.degrees.tolist() == [sum(m) for m in mons]
        assert c.factorials.tolist() == [
            math.prod(math.factorial(k) for k in m) for m in mons]
        pairs = list(zip(c._ia.tolist(), c._ib.tolist(), c._ik.tolist()))
        expect = {(i, j) for i, mi in enumerate(mons) for j, mj in enumerate(mons)
                  if sum(mi) + sum(mj) <= order}
        assert {(i, j) for i, j, _ in pairs} == expect and len(pairs) == len(expect)
        for i, j, k in pairs:
            assert c.index[tuple(u + v for u, v in zip(mons[i], mons[j]))] == k
        pair_deg = c.degrees[c._ia] + c.degrees[c._ib]
        assert np.all(np.diff(pair_deg) >= 0)
        for t in range(order + 1):
            assert c._pair_count[t] == np.count_nonzero(pair_deg <= t)
            assert c.sizes[t] == np.count_nonzero(c.degrees <= t)
        for v in range(nvars):
            for src, dst, scale in zip(c._shift_src[v], c._shift_dst[v],
                                       c._shift_scale[v]):
                up = list(mons[dst])
                up[v] += 1
                assert mons[src] == tuple(up) and scale == up[v]
            assert len(c._shift_dst[v]) == np.count_nonzero(c.degrees < order)


class TestReader:
    def test_first_partials_match_partial(self):
        # degree-1 monomials are not stored in variable order; the reader
        # must agree with partial() for every variable, bit for bit
        c = ctx(nvars=3, order=3)
        x, y, z = (c.variable(v, val) for v, val in enumerate((0.3, -1.2, 0.8)))
        tree = [[x * y.exp(), z.sin() * x], [y * y * z, (x + z).sqrt()]]
        vals, grad = taylor.read_jet1(tree)
        assert vals.shape == (2, 2) and grad.shape == (3, 2, 2)
        units = np.eye(3, dtype=int)
        for i in range(2):
            for j in range(2):
                assert vals[i, j] == tree[i][j].value()
                for v in range(3):
                    assert grad[v, i, j] == tree[i][j].partial(tuple(units[v]))
        assert np.array_equal(taylor.read_values(tree), vals)

    def test_batch_axes_lead_the_values(self):
        c = ctx(nvars=2, order=2)
        x = c.variable(0, np.array([1.0, 2.0, 3.0]))
        y = c.variable(1, np.array([0.5, 0.25, -1.0]))
        vals, grad = taylor.read_jet1([x * y, x + y])
        assert vals.shape == (3, 2) and grad.shape == (2, 3, 2)
        assert np.array_equal(vals[:, 0], x.value() * y.value())
        assert np.array_equal(grad[0, :, 0], y.value())
        assert np.array_equal(grad[1, :, 0], x.value())
        assert np.all(grad[:, :, 1] == 1.0)

    def test_single_series(self):
        c = ctx(nvars=2, order=1)
        x = c.variable(0, 2.0)
        vals, grad = taylor.read_jet1(x * 3.0)
        assert vals.shape == () and vals == 6.0
        assert grad.tolist() == [3.0, 0.0]

    def test_trust_is_checked(self):
        c = ctx(nvars=2, order=2)
        x = c.variable(0, 1.0)
        flat = x.partial_series(0).partial_series(0)
        assert taylor.read_values([x, flat]).tolist() == [1.0, 0.0]
        with pytest.raises(ValueError):
            taylor.read_jet1([x, flat])
