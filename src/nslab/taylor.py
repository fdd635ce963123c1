"""Truncated multivariate Taylor (jet) arithmetic over tensors.

A series holds the Taylor coefficients over the monomial basis of total
degree <= order in `nvars` variables.  Coefficients are stored as partial
derivatives divided by multi-index factorials, so the truncated product of
two series is the exact Taylor expansion of the product.  All elementary
functions are evaluated by univariate composition around the constant
term, which is likewise exact to machine precision.

`coef` has the layout (batch..., tensor..., monomial): leading batch axes
(a family of points), then the field's own tensor axes, then the monomial
axis.  Every operation broadcasts over the leading axes together, so one
product of two tensor series is one call however many points and entries
it covers.  Indexing (`s[i]`, `s[..., i]`, `s[..., None, :]`) and `sum`
act on the leading axes only; `stack` builds a tensor from entries and
`partials` appends the gradient over a range of variables as a new last
tensor axis.

Each series tracks a `trust` level, one for the whole tensor: the highest
total degree whose coefficients are exact given the inputs.  Monomials are
sorted by degree, so the trusted coefficients are a prefix of the monomial
axis, and a series stores exactly that prefix: `coef.shape[-1]` is always
`ctx.sizes[trust]` (truncated Taylor propagation; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13).  Extracting a derivative above
the trust level is a bug and raises immediately.

The package turns series into numbers with `read_values` and `read_jet1`
(`partial` serves the oracles and tests): they take the constant and
unit-monomial columns, since the first partial along x_v is the
coefficient of x_v.

A sum, a product or a stack is trusted to the lowest trust of its
operands and cuts each operand to that prefix.  A product pays only for
the monomial pairs up to its trust, so untrusted coefficients are never
formed, stored or propagated.  From trust AFFINE_MIN_TRUST on it also
skips the pairs that read an exactly zero coefficient above degree 1 of
an affine factor (a seeded variable or a scaling of one).  The inverse of
a matrix series is likewise formed only through its trust, as a Neumann
series around the inverse of its constant matrix.

A product forms its pair terms in blocks of rows, at most
OFFSET_CACHE_LIMIT terms per block (one row if a row has more), so its
temporaries are bounded whatever the batch size.

A context is built once per (nvars, order) and shared.  Besides its fixed
tables it builds, on first use, the pair subsets of products with an
affine factor, and caches one thing that grows with use: per pair table,
the bincount row-offset index of the largest block seen so far, which
every block of fewer rows reads a prefix of, so no kept index has more
than OFFSET_CACHE_LIMIT entries.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EvaluationDomainError


def _monomials(nvars, order):
    """All multi-indices with total degree <= order, by degree then lex."""
    out = []
    for deg in range(order + 1):
        level = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                level.append(prefix + (remaining,))
                return
            for k in range(remaining, -1, -1):
                rec(prefix + (k,), remaining - k, slots - 1)

        rec((), deg, nvars)
        level.sort()
        out.extend(level)
    return out


# most pair terms of one product block, and so most entries of a kept
# bincount offset index, 64 KiB of int64 per pair table.  Chosen from the
# grids the package documents and defaults to, nine nodes per surface axis:
# an RK4 stage of a shift in n = 3 multiplies 91 pairs per node at trust 2
# and 6 x 13 per node in its trust-1 quotient, so a batch of up to 90 nodes
# (a 9 x 9 grid has 81) forms each product in one block
OFFSET_CACHE_LIMIT = 8192

# lowest trust at which a product with an affine factor forms only the pairs
# whose affine side has degree <= 1.  In 6 variables that keeps 252 of 455
# pairs at trust 3 and 714 of 1820 at trust 4, but 70 of 91 at trust 2,
# where it bought no time measurable against run-to-run noise
AFFINE_MIN_TRUST = 3


def _nonzero(a):
    """Whether the array has a nonzero entry; its first entry often settles it."""
    return a.size and (a.item(0) != 0 or a.any())


def _factor_block(f, block):
    """The index of a product block into factor f: its size-1 axes stay whole and broadcast."""
    return tuple(k if n > 1 else slice(None) for k, n in zip(block, f.shape))


class TaylorContext:
    """Shared multiplication and differentiation tables for one (nvars, order).

    The product's monomial pairs `(_ia, _ib) -> _ik` are sorted by pair
    degree, so the pairs a product trusted to degree t needs are the first
    `_pair_count[t]` of them.
    """

    def __init__(self, nvars, order):
        self.nvars = nvars
        self.order = order
        self.monomials = _monomials(nvars, order)
        self.size = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        mono = np.array(self.monomials, dtype=np.int64).reshape(self.size, nvars)
        self.degrees = mono.sum(axis=1)
        fact = np.array([math.factorial(k) for k in range(order + 1)], dtype=float)
        self.factorials = fact[mono].prod(axis=1)
        levels = np.arange(order + 1)
        # sizes[t]: number of monomials of degree <= t (they come first)
        self.sizes = np.searchsorted(self.degrees, levels, side="right")

        # integer key of a multi-index in base order + 1; the sum of two keys
        # is the key of the summed multi-index while its degree is <= order
        base = order + 1
        if base ** nvars > np.iinfo(np.int64).max:
            raise ValueError(f"no int64 monomial keys for {nvars} variables at order {order}")
        key = mono @ base ** np.arange(nvars, dtype=np.int64)
        by_key = np.argsort(key)
        sorted_key = key[by_key]

        def lookup(keys):
            return by_key[np.searchsorted(sorted_key, keys)]

        # every pair (i, j) with deg_i + deg_j <= order, sorted by that degree
        width = self.sizes[order - self.degrees]
        ia = np.repeat(np.arange(self.size), width)
        ib = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        pair_deg = self.degrees[ia] + self.degrees[ib]
        by_deg = np.argsort(pair_deg, kind="stable")
        self._ia = ia[by_deg]
        self._ib = ib[by_deg]
        self._ik = lookup(key[self._ia] + key[self._ib])
        self._pair_count = np.searchsorted(pair_deg[by_deg], levels, side="right")
        # per (trust, side): the pairs a product reads and the number of
        # monomials it stores; side 0 holds every pair and the affine sides
        # are built on first use (see `_table`)
        self._pairs = {(t, 0): (self._ia[:n], self._ib[:n], self._ik[:n], int(self.sizes[t]))
                       for t, n in enumerate(self._pair_count)}
        # per (trust, side): the kept bincount row offsets (see `multiply`)
        self._offsets = {}

        # coefficient index of each unit monomial e_v; degree 1 is stored in
        # reverse variable order, so look it up
        self.units = np.array([self.index[tuple(int(k == v) for k in range(nvars))]
                               for v in range(nvars)] if order else [], dtype=np.int64)

        # d/dx_v maps coeff[m + e_v] -> coeff[m] * (m_v + 1) for every m of
        # degree < order; column m of the source and scale tables serves
        # monomial m, so a derivative trusted to t reads the first sizes[t]
        # columns, and row v serves variable v
        below = self.sizes[order - 1] if order else 0
        self._shift_src = np.array(
            [lookup(key[:below] + base ** v) for v in range(nvars)],
            dtype=np.int64).reshape(nvars, below)
        self._shift_scale = mono[:below].T + 1.0

    def multiply(self, a, b, trust):
        """Product of two coefficient arrays, exact through degree `trust`.

        Only the monomial pairs of total degree <= trust are formed.  They
        read the first sizes[trust] coefficients of each factor, which may
        store more, and the product stores exactly that many.

        From trust AFFINE_MIN_TRUST on, a factor is affine when all its
        coefficients above degree 1 are exactly zero (a seeded variable, a
        scaling of one); the product then forms only the pairs whose affine
        side has degree <= 1, in the same relative order.  With a finite
        other factor the pairs it drops are exact zeros, so the bincount
        sums the same nonzero terms in the same order and the result is
        bit-identical; an infinite coefficient there no longer meets a zero
        to make a NaN.

        The bincount that sums the pairs shifts row r's pairs by
        r * sizes[trust].  A product of more than OFFSET_CACHE_LIMIT pair
        terms forms them in blocks of rows, each at most that many terms
        (or one row): whole trailing leading axes, a slice of one axis and
        single entries of the axes before it, each factor sliced where it
        is not broadcast.  Each row sums its own pairs in the same order
        in any block, so the result does not depend on the blocking.  The
        offsets of r rows are a prefix of those of more rows, so the
        context keeps one offset index per pair table, for the most rows
        a block with that table has had, and serves fewer rows from its
        prefix.
        """
        # zero factors are common (sparse connections, x-independent fields);
        # a nonzero first coefficient settles most other factors at once
        if not (_nonzero(a) and _nonzero(b)):
            size = self.sizes[trust]
            return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (size,))
        side = 0
        if trust >= AFFINE_MIN_TRUST:
            cut = slice(self.sizes[1], self.sizes[trust])
            side = (not _nonzero(a[..., cut])) + 2 * (not _nonzero(b[..., cut]))
        key = (trust, side)
        ia, _, _, size = self._table(key)
        lead = a.shape[:-1]
        if lead != b.shape[:-1]:
            lead = np.broadcast_shapes(lead, b.shape[:-1])
        step = max(1, OFFSET_CACHE_LIMIT // len(ia))    # rows per block
        if math.prod(lead) <= step:
            return self._pair_sums(key, a, b)
        # axes j + 1.. stay whole in a block, axis j is cut into spans
        j, inner = len(lead) - 1, 1
        while inner * lead[j] <= step:
            inner *= lead[j]
            j -= 1
        span = step // inner
        a = a.reshape((1,) * (len(lead) + 1 - a.ndim) + a.shape)
        b = b.reshape((1,) * (len(lead) + 1 - b.ndim) + b.shape)
        out = np.empty(lead + (size,))
        for outer in np.ndindex(*lead[:j]):
            for start in range(0, lead[j], span):
                block = outer + (slice(start, start + span),)
                out[block] = self._pair_sums(key, a[_factor_block(a, block)],
                                             b[_factor_block(b, block)])
        return out

    def _pair_sums(self, key, a, b):
        """The product of a and b over pair table `key`, in one bincount."""
        ia, ib, _, size = self._table(key)
        prod = a.take(ia, axis=-1) * b.take(ib, axis=-1)
        lead = prod.shape[:-1]
        rows = math.prod(lead)
        # one bincount over all leading axes: row r sums into r * size + ik
        out = np.bincount(self._row_offsets(key, rows), weights=prod.ravel(),
                          minlength=rows * size)
        return out.reshape(lead + (size,))

    def _table(self, key):
        """(ia, ib, ik, sizes[trust]) of a product with pair table key = (trust, side).

        Side 0 is every pair of degree <= trust; side 1, 2 or 3 keeps those
        whose a, b or both factors have degree <= 1, in the same order.
        """
        table = self._pairs.get(key)
        if table is None:
            trust, side = key
            ia, ib, ik, size = self._pairs[trust, 0]
            keep = np.ones(len(ia), dtype=bool)
            if side & 1:
                keep &= self.degrees[ia] <= 1
            if side & 2:
                keep &= self.degrees[ib] <= 1
            table = self._pairs[key] = (ia[keep], ib[keep], ik[keep], size)
        return table

    def _row_offsets(self, key, rows):
        """The bincount index of `rows` rows: entry (r, j) is r * sizes[trust] + ik[j].

        A prefix of the kept index, which grows to the most rows asked for.
        """
        ik, size = self._pairs[key][2:]
        if rows == 1:
            return ik
        need = rows * len(ik)
        kept = self._offsets.get(key)
        if kept is None or len(kept) < need:
            kept = self._offsets[key] = (np.arange(rows)[:, None] * size + ik).ravel()
        return kept[:need]

    def constant(self, value, trust=None):
        """A constant series of value's shape, trusted to `trust` (default: the order)."""
        trust = self.order if trust is None else trust
        value = np.asarray(value, dtype=float)
        coef = np.zeros(value.shape + (self.sizes[trust],))
        coef[..., 0] = value
        return TaylorSeries(self, coef, trust)

    def variable(self, v, value):
        s = self.constant(value)
        if self.order >= 1:
            s.coef[..., self.units[v]] = 1.0
        return s


@lru_cache(maxsize=None)
def context(nvars, order):
    return TaylorContext(nvars, order)


class TaylorSeries:
    __slots__ = ("ctx", "coef", "trust")

    def __init__(self, ctx, coef, trust):
        self.ctx = ctx
        self.coef = coef
        self.trust = trust

    @property
    def shape(self):
        """The leading (batch and tensor) axes; the monomial axis is not among them."""
        return self.coef.shape[:-1]

    def __getitem__(self, key):
        """Index the leading axes as numpy does; the monomial axis stays whole."""
        if not isinstance(key, tuple):
            key = (key,)
        return TaylorSeries(self.ctx, self.coef[key + (slice(None),)], self.trust)

    def truncate(self, trust):
        """This series trusted only to `trust` (at most its own): its coefficient prefix."""
        trust = min(trust, self.trust)
        return TaylorSeries(self.ctx, self.coef[..., :self.ctx.sizes[trust]], trust)

    def sum(self, axis):
        """Sum over one leading axis, entry by entry in index order."""
        return TaylorSeries(self.ctx, self.coef.sum(axis=axis - 1 if axis < 0 else axis),
                            self.trust)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TaylorSeries):
            return other
        return self.ctx.constant(np.broadcast_to(other, self.shape), self.trust)

    def _prefixes(self, other):
        """(self's coefficients, other's, trust), both cut to their lower trust."""
        o = self._coerce(other)
        trust = min(self.trust, o.trust)
        size = self.ctx.sizes[trust]
        return self.coef[..., :size], o.coef[..., :size], trust

    def __add__(self, other):
        a, b, trust = self._prefixes(other)
        return TaylorSeries(self.ctx, a + b, trust)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, trust = self._prefixes(other)
        return TaylorSeries(self.ctx, a - b, trust)

    def __rsub__(self, other):
        a, b, trust = self._prefixes(other)
        return TaylorSeries(self.ctx, b - a, trust)

    def __neg__(self):
        return TaylorSeries(self.ctx, -self.coef, self.trust)

    @staticmethod
    def _scalar(other):
        a = np.asarray(other, dtype=float)
        return a[..., None] if a.ndim else a

    def __mul__(self, other):
        if not isinstance(other, TaylorSeries):
            return TaylorSeries(self.ctx, self.coef * self._scalar(other), self.trust)
        trust = min(self.trust, other.trust)
        return TaylorSeries(self.ctx, self.ctx.multiply(self.coef, other.coef, trust), trust)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, TaylorSeries):
            return TaylorSeries(self.ctx, self.coef / self._scalar(other), self.trust)
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self._reciprocal()

    def __pow__(self, k):
        if isinstance(k, int):
            return self.ipow(k)
        raise TypeError("use ipow or powc for series exponentiation")

    def ipow(self, k):
        """self**k by repeated squaring from the base; always a new series."""
        if k < 0:
            return self.ipow(-k)._reciprocal()
        if k == 0:
            return self.ctx.constant(np.ones(self.shape), self.trust)
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        if out is self:
            # a new array; + 0.0 turns -0.0 into 0.0, as a product's sum does
            out = TaylorSeries(self.ctx, self.coef + 0.0, self.trust)
        return out

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------

    def value(self):
        return self.coef[..., 0]

    def partial(self, multi_index):
        """Exact mixed partial derivative for the given multi-index."""
        deg = sum(multi_index)
        if deg > self.trust:
            raise ValueError(
                f"requested order-{deg} derivative from a series trusted to order {self.trust}"
            )
        i = self.ctx.index[tuple(multi_index)]
        return self.coef[..., i] * self.ctx.factorials[i]

    def partials(self, start, stop):
        """d/dx_v for v in range(start, stop) along a new last tensor axis.

        Costs one trust level.
        """
        if self.trust < 1:
            raise ValueError("cannot differentiate a series with no trusted derivatives")
        ctx = self.ctx
        size = ctx.sizes[self.trust - 1]
        coef = (self.coef[..., ctx._shift_src[start:stop, :size]]
                * ctx._shift_scale[start:stop, :size])
        # contiguous: einsum's summation order downstream depends on the layout
        return TaylorSeries(ctx, np.ascontiguousarray(coef), self.trust - 1)

    def partial_series(self, v):
        """d/dx_v as a series; costs one trust level."""
        return self.partials(v, v + 1)[..., 0]

    # ------------------------------------------------------------------
    # univariate composition
    # ------------------------------------------------------------------

    def _compose(self, outer_coeffs):
        """Evaluate sum_k c_k (s - s0)^k, truncated.

        `outer_coeffs` holds the Taylor coefficients of the outer function
        around the constant term s0; each entry broadcasts over batch axes.
        """
        hat = TaylorSeries(self.ctx, self.coef.copy(), self.trust)
        hat.coef[..., 0] = 0.0
        out = self.ctx.constant(np.broadcast_to(outer_coeffs[0], self.shape), self.trust)
        acc = None
        for k in range(1, min(self.ctx.order, self.trust) + 1):
            if k >= len(outer_coeffs):
                break
            acc = hat if acc is None else acc * hat
            out = out + acc * outer_coeffs[k]
        return out

    def _reciprocal(self):
        s0 = self.value()
        if np.any(s0 == 0.0):
            raise EvaluationDomainError("division by zero")
        K = min(self.ctx.order, self.trust)
        coeffs = [(-1.0) ** k / s0 ** (k + 1) for k in range(K + 1)]
        return self._compose(coeffs)

    def sqrt(self):
        s0 = self.value()
        if np.any(s0 < 0.0):
            raise EvaluationDomainError("sqrt of negative value")
        K = min(self.ctx.order, self.trust)
        if K >= 1 and np.any(s0 == 0.0):
            raise EvaluationDomainError("sqrt differentiated at zero")
        coeffs = [np.sqrt(s0)]
        c = 0.5
        for k in range(1, K + 1):
            coeffs.append(coeffs[-1] * c / (k * s0))
            c -= 1.0
        # coeffs[k] = binom(1/2, k) * s0^(1/2 - k)
        return self._compose(coeffs)

    def exp(self):
        e0 = np.exp(self.value())
        K = min(self.ctx.order, self.trust)
        coeffs = [e0 / math.factorial(k) for k in range(K + 1)]
        return self._compose(coeffs)

    def log(self):
        s0 = self.value()
        if np.any(s0 <= 0.0):
            raise EvaluationDomainError("log of non-positive value")
        K = min(self.ctx.order, self.trust)
        coeffs = [np.log(s0)]
        for k in range(1, K + 1):
            coeffs.append((-1.0) ** (k + 1) / (k * s0 ** k))
        return self._compose(coeffs)

    def sin(self):
        s0 = self.value()
        table = (np.sin(s0), np.cos(s0), -np.sin(s0), -np.cos(s0))
        K = min(self.ctx.order, self.trust)
        coeffs = [table[k % 4] / math.factorial(k) for k in range(K + 1)]
        return self._compose(coeffs)

    def cos(self):
        s0 = self.value()
        table = (np.cos(s0), -np.sin(s0), -np.cos(s0), np.sin(s0))
        K = min(self.ctx.order, self.trust)
        coeffs = [table[k % 4] / math.factorial(k) for k in range(K + 1)]
        return self._compose(coeffs)

    def tan(self):
        c = self.cos()
        if np.any(c.value() == 0.0):
            raise EvaluationDomainError("tan at a pole")
        return self.sin() / c

    def absolute(self):
        s0 = self.value()
        K = min(self.ctx.order, self.trust)
        if K >= 1 and np.any(s0 == 0.0):
            raise EvaluationDomainError("abs differentiated at zero")
        return self * np.sign(s0)

    def powc(self, c):
        """Real power with constant exponent."""
        if float(c).is_integer():
            return self.ipow(int(c))
        s0 = self.value()
        if np.any(s0 <= 0.0):
            raise EvaluationDomainError("non-integer power of non-positive base")
        K = min(self.ctx.order, self.trust)
        coeffs = [s0 ** c]
        fall = c
        for k in range(1, K + 1):
            coeffs.append(coeffs[-1] * fall / (k * s0))
            fall -= 1.0
        return self._compose(coeffs)


def stack(series):
    """One series from a list of series of one shape, along a new last leading axis.

    The result is trusted to the lowest trust of the entries.
    """
    trust = min(s.trust for s in series)
    size = series[0].ctx.sizes[trust]
    coef = np.stack([s.coef[..., :size] for s in series], axis=-2)
    return TaylorSeries(series[0].ctx, coef, trust)


def read_values(series):
    """Values of a series: an array of its leading (batch and tensor) shape.

    The array is C-contiguous whatever the layout of `coef`: einsum's
    summation order follows its operands' layout, so a point then sums in
    the same order alone and within a batch.
    """
    return np.array(series.coef[..., 0], order="C")


def read_jet1(series):
    """Values and first partials of a series trusted to order 1.

    Returns (values, grad) with values shaped as in `read_values` and
    grad[v] = d/dx_v of the values, so grad has one leading axis over the
    context's variables.
    """
    if series.trust < 1:
        raise ValueError(
            f"requested order-1 derivative from a series trusted to order {series.trust}")
    coef = series.coef
    # contiguous results: einsum's summation order depends on the layout
    vals = np.array(coef[..., 0])
    # the unit monomials' factorials are 1: their coefficients are the partials
    grad = np.ascontiguousarray(np.moveaxis(coef[..., series.ctx.units], -1, 0))
    return vals, grad


def atan2_series(y, x):
    """Branch-correct atan2 of two series sharing a context.

    The nonconstant part reduces to atan of a series with zero constant
    term, so only the odd atan coefficients around 0 are needed.
    """
    x0, y0 = x.value(), y.value()
    if np.any((x0 == 0.0) & (y0 == 0.0)):
        raise EvaluationDomainError("atan2 at the origin")
    theta0 = np.arctan2(y0, x0)
    w = (y * x0 - x * y0) / (x * x0 + y * y0)
    K = min(w.ctx.order, w.trust)
    coeffs = [theta0 if k == 0 else ((-1.0) ** ((k - 1) // 2) / k if k % 2 else 0.0)
              for k in range(K + 1)]
    return w._compose(coeffs)


def series_matrix_inverse(m):
    """Invert a (..., n, n) matrix series through its trust.

    With m0 the constant matrix, m = m0 (1 + N) for N = m0^-1 (m - m0),
    which has no constant term, so N^k starts at degree k and

        m^-1 = (1 - N + N^2 - ... + (-N)^trust) m0^-1

    is exact through the trust.  The sum is taken in Horner form, trust - 1
    matrix products of series (none at trust <= 1).  m0^-1 is LAPACK's LU
    inverse, which pivots each matrix of a batch on its own rows, so a
    batched inverse equals each point's own.  m0 must be invertible
    (checked by the caller via its determinant).
    """
    n = m.shape[-1]
    m0_inv = np.linalg.inv(m.value())
    hat = TaylorSeries(m.ctx, m.coef.copy(), m.trust)
    hat.coef[..., 0] = 0.0
    neg = (hat[..., None, :, :] * -m0_inv[..., :, :, None]).sum(-2)      # -N
    eye = np.broadcast_to(np.eye(n), m.shape)
    s = neg + eye
    for _ in range(m.trust - 1):
        s = (neg[..., :, :, None] * s[..., None, :, :]).sum(-2) + eye
    return (s[..., :, :, None] * m0_inv[..., None, :, :]).sum(-2)
