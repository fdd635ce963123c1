import itertools
import math

import numpy as np
import pytest

from nslab import (
    Hypersurface,
    PhasePoint,
    PointSampler,
    build_modified_hamiltonian,
    canonical_connection,
    residual_from_calc,
    taylor,
)
from nslab.engine import PointCalculus
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


def matrix(rows):
    """A matrix series from nested rows of series."""
    return taylor.stack([taylor.stack(list(column)) for column in zip(*rows)])


def assert_inverse(m, inv):
    """m inv = 1 in every trusted coefficient, to 1e-13 of the size of the terms summed.

    Returns m inv - 1, constant column first.
    """
    c, t = m.ctx, inv.trust
    w = c.sizes[t]
    assert inv.shape == m.shape and inv.coef.shape[-1] == w
    eye = (m[..., :, :, None] * inv[..., None, :, :]).sum(-2)
    # the same contraction of absolute values bounds the rounding of each sum
    terms = c.multiply(np.abs(m.coef[..., :, :, None, :w]),
                       np.abs(inv.coef[..., None, :, :, :]), t).sum(-3)
    defect = eye.coef.copy()
    defect[..., 0] -= np.eye(m.shape[-1])
    assert np.max(np.abs(defect)) <= 1e-13 * np.max(terms)
    return defect


class TestMatrixInverse:
    def test_inverse_of_series_matrix(self):
        c = ctx(nvars=2, order=4)
        for trust, batch in itertools.product(range(5), [(), (2, 3)]):
            x0, y0 = np.random.default_rng(trust).uniform(-0.5, 0.5, size=(2,) + batch)
            if not batch:
                x0, y0 = 0.3, -0.2
            x, y = c.variable(0, x0), c.variable(1, y0)
            m = matrix([[1.0 + x * y, y], [x, 2.0 + x]]).truncate(trust)
            inv = taylor.series_matrix_inverse(m)
            assert inv.trust == trust and inv.shape == batch + (2, 2)
            defect = assert_inverse(m, inv)
            assert np.max(np.abs(defect[..., 0])) < 1e-14
            assert np.max(np.abs(defect)) < 1e-13
            for b in np.ndindex(*batch):
                assert np.array_equal(taylor.series_matrix_inverse(m[b]).coef, inv[b].coef)

    def test_batched_inverse_matches_each_point(self):
        # a (2, 3) batch of 3 x 3 matrices; the first column needs a pivot swap
        c = ctx(nvars=2, order=4)
        rng = np.random.default_rng(5)
        x0, y0 = rng.uniform(-0.5, 0.5, size=(2, 2, 3))
        x, y = c.variable(0, x0), c.variable(1, y0)
        full = matrix([[0.1 * x * y, 2.0 + y, x],
                       [3.0 + x * x, y, 1.0 - y],
                       [x, 1.0 + x * y, 4.0 + y]])
        for trust in range(5):
            m = full.truncate(trust)
            inv = taylor.series_matrix_inverse(m)
            assert inv.shape == (2, 3, 3, 3)
            defect = assert_inverse(m, inv)
            assert np.max(np.abs(defect[..., 0])) < 1e-14
            assert np.max(np.abs(defect)) < 1e-12
            for b in np.ndindex(2, 3):
                assert_inverse(m[b], inv[b])
                assert np.array_equal(taylor.series_matrix_inverse(m[b]).coef, inv[b].coef)

    def test_each_matrix_of_a_batch_pivots_on_its_own_rows(self):
        # the first column is tiny in row 0 of matrix 0 and in row 1 of
        # matrix 1: one pivot row shared by the batch would divide one of
        # them by 1e-12
        c = ctx(nvars=2, order=3)
        x, y = c.variable(0, np.array([0.3, -0.2])), c.variable(1, np.array([0.1, 0.4]))
        tiny = np.array([1e-12, 1.0])
        m = matrix([[(1.0 + x) * tiny, 1.0 + y, x],
                    [(2.0 + y) * tiny[::-1], x, 1.0 - y],
                    [0.5 * x, 1.0 + x * y, 3.0 + y]])
        inv = taylor.series_matrix_inverse(m)
        defect = assert_inverse(m, inv)
        assert np.max(np.abs(defect[..., 0])) < 1e-15
        assert np.max(np.abs(defect)) < 1e-13
        for b in range(2):
            assert np.array_equal(taylor.series_matrix_inverse(m[b]).coef, inv[b].coef)


def dense_product(c, a, b, t):
    """Brute-force truncated product over all monomial pairs, through degree t."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    # a pair of degree <= t reads only monomials of degree <= t, which come first
    mons = c.monomials[:c.sizes[t]]
    for i, mi in enumerate(mons):
        for j, mj in enumerate(mons):
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
        for t in range(order + 1):
            w = c.sizes[t]
            a, b = rng.normal(size=(2, c.size))
            got = c.multiply(a, b, t)
            ref = dense_product(c, a, b, t)
            # the product stores its trusted prefix, and nothing else
            assert got.shape == (w,)
            assert np.max(np.abs(got - ref[:w])) <= 1e-12 * np.max(np.abs(ref))
            # it reads only the factors' prefixes: stored at trust t, they
            # give the same product
            assert np.array_equal(c.multiply(a[:w], b[:w], t), got)
            assert c.multiply(np.zeros(w), b, t).shape == (w,)
            # a leading batch axis on one or both factors
            batch = rng.normal(size=(3, c.size))
            for x, y in ((batch, b), (a, batch), (batch, batch[::-1])):
                got = c.multiply(x, y, t)
                ref = dense_product(c, x, y, t)
                assert got.shape == (3, w)
                assert np.max(np.abs(got - ref[:, :w])) <= 1e-12 * np.max(np.abs(ref))
                assert np.array_equal(c.multiply(x[..., :w], y[..., :w], t), got)
            assert c.multiply(np.zeros((3, w)), b, t).shape == (3, w)

    def test_row_counts_share_the_kept_offsets(self):
        # products of one trust keep one bincount index; a product of fewer
        # rows reads its prefix, and one of more rows grows it up to the
        # block bound (192 rows of 91 pairs form blocks of 90, 90 and 12
        # rows), so each product sums exactly as the dense reference does
        c = taylor.TaylorContext(6, 2)
        rng = np.random.default_rng(7)
        for t in (1, 2):
            w = c.sizes[t]
            for rows in (1, 64, 192, 64, 1, 192):
                a, b = rng.normal(size=(2, rows, c.size))
                assert np.array_equal(c.multiply(a, b, t), dense_product(c, a, b, t)[:, :w])
        assert c._offsets[1, 0].size == 192 * c._pair_count[1]
        assert c._offsets[2, 0].size == 90 * c._pair_count[2] <= taylor.OFFSET_CACHE_LIMIT

    def test_kept_offsets_are_bounded(self):
        limit = taylor.OFFSET_CACHE_LIMIT
        rng = np.random.default_rng(8)
        # residual-sweep products: 4 or 16 points of up to 81 tensor entries
        # at order 5, some broadcast over a tensor axis
        c = taylor.TaylorContext(6, 5)
        for t in range(c.order + 1):
            for lead in ((4,), (4, 3, 3), (4, 3, 3, 3), (16,), (16, 6), (16, 3, 3),
                         (16, 3, 3, 3), (16, 3, 3, 3, 3)):
                a, b = rng.normal(size=(2,) + lead + (c.size,))
                c.multiply(a, b, t)
            c.multiply(rng.normal(size=(16, 1, 3, 3, 3, c.size)),
                       rng.normal(size=(16, 3, 3, 1, 1, c.size)), t)
        assert all(k.size <= limit for k in c._offsets.values())
        # an RK4 stage of a shift in n = 3 at the default 9 x 9 grid keeps
        # both its indices: 81 nodes at trust 2 and its (81, 6) quotient at trust 1
        s = taylor.TaylorContext(6, 2)
        s.multiply(*rng.normal(size=(2, 81, s.size)), 2)
        s.multiply(*rng.normal(size=(2, 81, 6, s.size)), 1)
        assert s._offsets[2, 0].size == 81 * s._pair_count[2] <= limit
        assert s._offsets[1, 0].size == 81 * 6 * s._pair_count[1] <= limit

    def test_a_large_shift_stage_never_rebuilds_its_index(self):
        # 100 nodes at trust 2 are 9100 pair terms: blocks of 90 and 10 rows
        # read one kept index of 90 rows, built by the first product only
        s = taylor.TaylorContext(6, 2)
        rng = np.random.default_rng(11)
        kept = None
        for _ in range(3):
            a, b = rng.normal(size=(2, 100, s.size))
            assert np.array_equal(s.multiply(a, b, 2), dense_product(s, a, b, 2))
            kept = s._offsets[2, 0] if kept is None else kept
            assert s._offsets[2, 0] is kept
        assert kept.size == 90 * s._pair_count[2] <= taylor.OFFSET_CACHE_LIMIT

    @pytest.mark.parametrize("trust", [2, 3, 5])
    @pytest.mark.parametrize("la,lb", [((16, 1, 3, 3, 3), (16, 3, 3, 1, 1)),
                                       ((16, 6), (16, 1)), ((100,), ()), ((3, 1, 7), (5, 1))])
    def test_blocked_products_equal_row_by_row_products(self, trust, la, lb):
        # products of more pair terms than OFFSET_CACHE_LIMIT form them in
        # blocks of rows; each row equals its own one-row product bit for
        # bit, with either side affine and with factors zero in some rows
        c = taylor.context(6, 5)
        rng = np.random.default_rng(trust + len(la) + len(lb))
        lead = np.broadcast_shapes(la, lb)
        pairs = c._pair_count[trust]
        assert math.prod(lead) * pairs > taylor.OFFSET_CACHE_LIMIT

        def affine(f):
            f = f.copy()
            f[..., c.sizes[1]:] = 0.0
            return f

        def some_zero_rows(f):
            f = f.copy()
            f.reshape(-1, c.size)[::3] = 0.0
            return f

        a, b = rng.normal(size=la + (c.size,)), rng.normal(size=lb + (c.size,))
        for x, y in ((a, b), (affine(a), b), (a, affine(b)), (affine(a), affine(b)),
                     (some_zero_rows(a), b), (a, some_zero_rows(b)),
                     (np.zeros_like(a), b)):
            got = c.multiply(x, y, trust)
            assert got.shape == lead + (c.sizes[trust],)
            xs = np.broadcast_to(x, lead + x.shape[-1:])
            ys = np.broadcast_to(y, lead + y.shape[-1:])
            for row in np.ndindex(*lead):
                assert np.array_equal(got[row], c.multiply(xs[row], ys[row], trust))

    @pytest.mark.parametrize("nvars", [6, 2])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_affine_factors_skip_exact_zero_pairs(self, nvars, lead):
        # a factor whose coefficients above degree 1 are zero forms only the
        # pairs whose affine side has degree <= 1: the same nonzero terms in
        # the same order as the full pair list, so the same bits
        c = taylor.TaylorContext(nvars, 5)
        rng = np.random.default_rng(nvars + len(lead))

        def full_pairs(a, b, t):
            ia, ib, ik, size = c._pairs[t, 0]
            prod = (a[..., ia] * b[..., ib]).reshape(-1, len(ia))
            rows = [np.bincount(ik, weights=r, minlength=size) for r in prod]
            return np.stack(rows).reshape(np.broadcast_shapes(a.shape, b.shape)[:-1] + (size,))

        def affine(w):
            f = np.zeros(lead + (w,))
            f[..., :c.sizes[1]] = rng.normal(size=lead + (c.sizes[1],))
            return f

        for t in range(taylor.AFFINE_MIN_TRUST, c.order + 1):
            w = c.sizes[t]
            general, lin, lin2 = rng.normal(size=lead + (w,)), affine(w), affine(w)
            # one nonzero degree-2 coefficient, in the last row only: the
            # factor is not affine and takes the full pair list
            near = lin.copy()
            near.reshape(-1, w)[-1, c.sizes[1]] = 0.7
            for a, b in ((lin, general), (general, lin), (lin, lin2),
                         (near, general), (general, near), (near, lin)):
                got = c.multiply(a, b, t)
                assert np.array_equal(got, full_pairs(a, b, t))
                ref = dense_product(c, a, b, t)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_series_product_is_zero_above_trust(self):
        # nothing above the trust is stored: the product is the dense
        # reference's trusted prefix
        c = ctx(nvars=2, order=4)
        x = c.variable(0, 0.5)
        y = c.variable(1, -1.5).truncate(2)
        cube = (x + y).ipow(3)
        f = cube * x.exp()
        assert (cube.trust, f.trust) == (2, 2)
        assert cube.coef.shape == f.coef.shape == (c.sizes[2],)
        padded = np.zeros(c.size)
        padded[:c.sizes[2]] = cube.coef
        ref = dense_product(c, padded, x.exp().coef, 2)
        assert np.max(np.abs(f.coef - ref[:c.sizes[2]])) <= 1e-12 * np.max(np.abs(ref))
        assert f.partial((1, 1)) == pytest.approx(ref[c.index[(1, 1)]], rel=1e-12)

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
        # column dst of the shift tables serves monomial dst
        for v in range(nvars):
            for dst, (src, scale) in enumerate(zip(c._shift_src[v], c._shift_scale[v])):
                up = list(mons[dst])
                up[v] += 1
                assert mons[src] == tuple(up) and scale == up[v]
        assert c._shift_src.shape == c._shift_scale.shape == (
            nvars, np.count_nonzero(c.degrees < order))


class TestReader:
    def test_first_partials_match_partial(self):
        # degree-1 monomials are not stored in variable order; the reader
        # must agree with partial() for every variable, bit for bit
        c = ctx(nvars=3, order=3)
        x, y, z = (c.variable(v, val) for v, val in enumerate((0.3, -1.2, 0.8)))
        tree = [[x * y.exp(), z.sin() * x], [y * y * z, (x + z).sqrt()]]
        vals, grad = taylor.read_jet1(matrix(tree))
        assert vals.shape == (2, 2) and grad.shape == (3, 2, 2)
        units = np.eye(3, dtype=int)
        for i in range(2):
            for j in range(2):
                assert vals[i, j] == tree[i][j].value()
                for v in range(3):
                    assert grad[v, i, j] == tree[i][j].partial(tuple(units[v]))
        assert np.array_equal(taylor.read_values(matrix(tree)), vals)

    def test_batch_axes_lead_the_values(self):
        c = ctx(nvars=2, order=2)
        x = c.variable(0, np.array([1.0, 2.0, 3.0]))
        y = c.variable(1, np.array([0.5, 0.25, -1.0]))
        vals, grad = taylor.read_jet1(taylor.stack([x * y, x + y]))
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
        assert taylor.read_values(taylor.stack([x, flat])).tolist() == [1.0, 0.0]
        with pytest.raises(ValueError):
            taylor.read_jet1(taylor.stack([x, flat]))


def same(a, b):
    """Equal coefficients bit for bit, signs of zero included, and equal trust."""
    return (a.trust == b.trust and a.coef.shape == b.coef.shape
            and np.array_equal(a.coef, b.coef)
            and np.array_equal(np.signbit(a.coef), np.signbit(b.coef)))


class TestTensorSeries:
    """A series with tensor axes behaves as the tensor of its entries."""

    @staticmethod
    def entries(batch):
        c = ctx(nvars=3, order=3)
        rng = np.random.default_rng(len(batch))
        x, y, z = (c.variable(v, rng.uniform(0.2, 1.0, size=batch)) for v in range(3))
        zero = c.constant(np.zeros(batch))
        return [x * y.exp(), z.sin() * x, y * y * z, (x + z).sqrt(), x - z, zero]

    @pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
    def test_stacked_products_are_entry_products(self, batch):
        e = self.entries(batch)
        u = taylor.stack(e[:3])                       # (..., 3)
        w = taylor.stack(e[3:])                       # (..., 3)
        outer = u[..., :, None] * w[..., None, :]     # (..., 3, 3)
        assert outer.shape == batch + (3, 3)
        for i in range(3):
            for j in range(3):
                assert same(outer[..., i, j], e[i] * e[3 + j])
        # one entry trusted lower lowers the trust of the whole tensor, and
        # every entry of a product is then truncated there
        low = taylor.stack([e[0], e[1].partial_series(0)])
        prod = low * u[..., :2]
        assert prod.trust == 2
        for i, f in enumerate((e[0], e[1].partial_series(0))):
            ref = e[0].ctx.multiply(f.coef, e[i].coef, 2)
            assert np.array_equal(prod[..., i].coef, ref)

    @pytest.mark.parametrize("batch", [(), (4,)])
    def test_index_rules(self, batch):
        e = self.entries(batch)
        m = matrix([e[:3], e[3:]])                    # (..., 2, 3)
        assert m.shape == batch + (2, 3)
        assert same(m[..., 1, 2], e[5])
        assert same(m[..., 1], taylor.stack([e[1], e[4]]))
        assert same(m[..., 1, :], taylor.stack(e[3:]))
        assert m[..., None, :].shape == batch + (2, 1, 3)
        assert same(m[..., None, :][..., 1, 0, 2], e[5])
        if batch:
            # s[i] indexes the first leading axis, here the batch
            assert same(m[1], matrix([[s[1] for s in e[:3]], [s[1] for s in e[3:]]]))
        else:
            assert same(m[1], taylor.stack(e[3:]))
        # the monomial axis is never indexed
        assert m[..., 0, 0].coef.shape[-1] == e[0].ctx.size
        with pytest.raises(IndexError):
            m[(0,) * (len(batch) + 3)]

    def test_sum_adds_entries_in_order(self):
        e = self.entries((4,))
        m = matrix([e[:3], e[3:]])
        assert same(m.sum(-1)[..., 0], e[0] + e[1] + e[2])
        assert same(m.sum(-2)[..., 1], e[1] + e[4])

    def test_partials_along_a_new_axis(self):
        e = self.entries((4,))
        u = taylor.stack(e[:3])
        d = u.partials(1, 3)
        assert d.shape == (4, 3, 2) and d.trust == 2
        units = np.eye(3, dtype=int)
        for i in range(3):
            for j, v in enumerate((1, 2)):
                assert same(d[..., i, j], e[i].partial_series(v))
                assert np.array_equal(d[..., i, j].value(), e[i].partial(tuple(units[v])))

    def test_stack_trust_is_the_lowest(self):
        e = self.entries(())
        low = e[0].partial_series(0).partial_series(1)
        s = taylor.stack([e[0], low, e[1]])
        assert (e[0].trust, low.trust, s.trust) == (3, 1, 1)
        assert np.array_equal(s[1].coef, low.coef)


class TestTrustSizedStorage:
    """Every series stores exactly its trusted prefix: ctx.sizes[trust] coefficients."""

    @pytest.fixture
    def created(self, monkeypatch):
        made = []
        init = taylor.TaylorSeries.__init__

        def record(self, ctx, coef, trust):
            init(self, ctx, coef, trust)
            made.append(self)

        monkeypatch.setattr(taylor.TaylorSeries, "__init__", record)
        return made

    @staticmethod
    def check(series):
        assert series
        for s in series:
            assert 0 <= s.trust <= s.ctx.order
            assert s.coef.shape[-1] == s.ctx.sizes[s.trust]

    def test_point_calculus(self, created):
        sysm = build_modified_hamiltonian("(p1^2 + p2^2 + p3^2)/2 + x1*p2^2/5", 3)
        points = PointSampler(3, 2, seed=3).points()
        batch = PhasePoint([q.x for q in points], [q.p for q in points])
        calc = PointCalculus(sysm, canonical_connection(sysm), batch, depth=1)
        residual_from_calc(calc)
        cached = {name: v for name, v in vars(calc).items()
                  if isinstance(v, taylor.TaylorSeries)}
        assert {"V_s", "T_s", "dV_s", "gamma_s", "U_s", "W_s", "Q_s"} <= cached.keys()
        self.check(cached.values())
        self.check(created)

    def test_rhs_jacobian_and_geometry(self, created):
        sysm = build_modified_hamiltonian("(p1^2 + p2^2 + p3^2)/2 + x1*p2^2/5", 3)
        rng = np.random.default_rng(4)
        sysm.rhs_jacobian_batch(rng.uniform(-1, 1, (4, 3)), rng.uniform(0.5, 2, (4, 3)))
        self.check(created)
        created.clear()
        sphere = Hypersurface(3, ["sin(y1)*cos(y2)", "sin(y1)*sin(y2)", "cos(y1)"],
                              [[0.3, 1.2], [-0.6, 0.6]])
        sphere.geometry(np.array([[0.5, 0.1], [0.9, -0.3]]))
        self.check(created)
