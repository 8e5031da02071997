"""Exact rational linear algebra: vectors, matrices, order-3 structure tensors,
sparse 2-leg tensor elements, and the nullspace / solving primitives used by
every other module.

Conventions, fixed once:
  * scalars are `fractions.Fraction` (always lowest terms, denominator > 0);
  * vectors are tuples of Fraction, matrices are row-major tuples of rows;
  * a matrix M represents the map e_c |-> sum_r M[r][c] e_r (columns index
    the source basis);
  * Tensor3 t stores t[i][j][k] = coefficient of basis vector k in the
    product (resp. of e_j (x) e_k in the coproduct) of basis vectors i, j.

Elimination is fraction-free: rows are cleared to integers and updated by
cross-multiplication with gcd reduction, which keeps intermediate entries
small without ever rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Rat = Fraction

RAT_ZERO = Fraction(0)
RAT_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Shapes of the operands do not line up."""


def rat(x) -> Fraction:
    """Coerce an int, string 'p/q', or Fraction to an exact rational. A bool
    or a float raises TypeError; a string that is not a rational or has a zero
    denominator raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def rat_reader():
    """A `rat` that parses each distinct string token once, for one read of a
    workspace array. Only `str` tokens are memoised: False == 0 and
    hash(False) == hash(0), so a memo keyed on values would read false as 0;
    every other token goes through `rat` and is refused as before."""
    memo: dict = {}

    def read(x) -> Fraction:
        if type(x) is not str:
            return rat(x)
        f = memo.get(x)
        if f is None:
            f = memo[x] = rat(x)
        return f
    return read


def rat_str(x: Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is 1."""
    return str(x)


# ---------------------------------------------------------------------------
# vectors and matrices
# ---------------------------------------------------------------------------

def vec(entries) -> tuple:
    return tuple(map(rat_reader(), entries))


def basis_vec(n: int, i: int) -> tuple:
    return tuple(RAT_ONE if j == i else RAT_ZERO for j in range(n))


def vec_dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    return sum((a * b for a, b in zip(u, v)), RAT_ZERO)


def lin_comb(scalars, vectors, dim: int) -> tuple:
    """sum_p scalars[p] vectors[p], a vector of length dim."""
    out = [RAT_ZERO] * dim
    for c, v in zip(scalars, vectors):
        if c != 0:
            for idx, x in enumerate(v):
                if x != 0:
                    out[idx] += c * x
    return tuple(out)


def mat(rows) -> tuple:
    read = rat_reader()
    m = tuple(tuple(map(read, r)) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged rows")
    return m


def identity_mat(n: int) -> tuple:
    return tuple(basis_vec(n, i) for i in range(n))


def mat_shape(m) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def mat_vec(m, v):
    r, c = mat_shape(m)
    if len(v) != c:
        raise DimensionMismatch(f"matrix is {r}x{c}, vector has length {len(v)}")
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a, b):
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise DimensionMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = transpose(b)
    return tuple(tuple(vec_dot(arow, bcol) for bcol in bt) for arow in a)


def transpose(m):
    r, c = mat_shape(m)
    return tuple(tuple(m[i][j] for i in range(r)) for j in range(c))


def commutant_rows(mats, m: int) -> tuple:
    """Linear equations X g = g X, one per matrix entry, on the m x m unknown X
    flattened row-major; their kernel is the commutant of the given matrices."""
    rows = []
    for g in mats:
        for r in range(m):
            for c in range(m):
                row = [RAT_ZERO] * (m * m)
                for k in range(m):
                    row[r * m + k] += g[k][c]
                    row[k * m + c] -= g[r][k]
                rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# sparse fraction-free elimination core
# ---------------------------------------------------------------------------

def _int_row(row) -> dict:
    """Clear denominators of a dense row or a sparse {col: x} dict; return
    {col: int} over the nonzero entries."""
    entries = [(j, x) for j, x in (row.items() if isinstance(row, dict) else enumerate(row))
               if x != 0]
    if not entries:
        return {}
    den = 1
    for _, x in entries:
        den = den * x.denominator // gcd(den, x.denominator)
    out = {j: int(x * den) for j, x in entries}
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        out = {j: v // g for j, v in out.items()}
    return out


def _reduce_content(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _sparse_rref(rows: list[dict], ncols: int):
    """Fraction-free reduced echelon form of integer sparse rows.

    Returns (pivot_rows, pivots) where pivot_rows[i] is a normalized sparse
    Fraction row with leading 1 in column pivots[i], reduced above and below.
    """
    work = [dict(r) for r in rows if r]
    piv_rows: list[dict] = []
    pivots: list[int] = []
    for col in range(ncols):
        cand = None
        for idx, r in enumerate(work):
            if col in r:
                if cand is None or len(r) < len(work[cand]):
                    cand = idx
        if cand is None:
            continue
        prow = work.pop(cand)
        p = prow[col]
        nxt = []
        for r in work:
            a = r.get(col)
            if a is None:
                nxt.append(r)
                continue
            new = {}
            for j in r.keys() | prow.keys():
                w = r.get(j, 0) * p - prow.get(j, 0) * a
                if w:
                    new[j] = w
            new.pop(col, None)
            if new:
                nxt.append(_reduce_content(new))
        work = nxt
        piv_rows.append(prow)
        pivots.append(col)
    # back-substitute to reduced form, over Fraction
    frac_rows = [{j: Fraction(v, r[pivots[i]]) for j, v in r.items()}
                 for i, r in enumerate(piv_rows)]
    for i in range(len(frac_rows) - 1, -1, -1):
        for k in range(i):
            c = frac_rows[k].get(pivots[i])
            if c is None or c == 0:
                continue
            rk = frac_rows[k]
            for j, v in frac_rows[i].items():
                w = rk.get(j, RAT_ZERO) - c * v
                if w:
                    rk[j] = w
                else:
                    rk.pop(j, None)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [frac_rows[i] for i in order], [pivots[i] for i in order]


def _rows_of_mat(m) -> list[dict]:
    return [_int_row(r) for r in m]


def rank(m) -> int:
    _, pivots = _sparse_rref(_rows_of_mat(m), mat_shape(m)[1])
    return len(pivots)


def kernel_basis(m, ncols: int | None = None) -> list:
    """Exact basis of the right null space {v : m v = 0}; [] iff injective.
    The rows of m may be sparse {col: x} dicts when ncols is given."""
    ncols = mat_shape(m)[1] if ncols is None else ncols
    frac_rows, pivots = _sparse_rref(_rows_of_mat(m), ncols)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for f in free:
        v = [RAT_ZERO] * ncols
        v[f] = RAT_ONE
        for row, p in zip(frac_rows, pivots):
            c = row.get(f)
            if c is not None:
                v[p] = -c
        basis.append(tuple(v))
    return basis


def solve(m, b):
    """Exact solution of m x = b, or None when the system is inconsistent."""
    nrows, ncols = mat_shape(m)
    if len(b) != nrows:
        raise DimensionMismatch(f"matrix is {nrows}x{ncols}, rhs has length {len(b)}")
    aug = [list(row) + [bv] for row, bv in zip(m, b)]
    frac_rows, pivots = _sparse_rref([_int_row(r) for r in aug], ncols + 1)
    x = [RAT_ZERO] * ncols
    for row, p in zip(frac_rows, pivots):
        if p == ncols:
            return None
        x[p] = row.get(ncols, RAT_ZERO)
    return tuple(x)


def mat_inverse(m):
    """Exact inverse, or None when singular."""
    n, c = mat_shape(m)
    if n != c:
        raise DimensionMismatch("inverse of a non-square matrix")
    aug = [list(row) + list(basis_vec(n, i)) for i, row in enumerate(m)]
    frac_rows, pivots = _sparse_rref([_int_row(r) for r in aug], 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    inv = tuple(tuple(frac_rows[i].get(n + j, RAT_ZERO) for j in range(n))
                for i in range(n))
    return inv


# ---------------------------------------------------------------------------
# subspaces: canonical RREF bases, membership and coordinates
# ---------------------------------------------------------------------------

def span_basis(vectors, dim: int | None = None) -> list:
    """Canonical (RREF) basis of the span of the given vectors."""
    vectors = list(vectors)
    if dim is None:
        if not vectors:
            raise DimensionMismatch("empty span needs an explicit ambient dimension")
        dim = len(vectors[0])
    rows = [_int_row(v) for v in vectors]
    frac_rows, _ = _sparse_rref(rows, dim)
    return [tuple(r.get(j, RAT_ZERO) for j in range(dim)) for r in frac_rows]


class Subspace:
    """The span of the given vectors in Q^dim, from one elimination of the
    vectors augmented with the identity, [v_1 .. v_k | I_k].

    The reduced rows with a pivot among the first dim columns form `basis`,
    the canonical basis that span_basis(vectors, dim) lists; `pivots` are their
    pivot columns, a column basis of the matrix [v_1 .. v_k]. Their last k columns
    say which combination of the given vectors makes each basis vector. A row
    whose pivot lies beyond dim records a dependence among the given vectors.
    Membership and coordinate queries then cost one pass over the basis.
    """

    __slots__ = ("ambient", "basis", "pivots", "_vectors", "_independent", "_rows", "_combs")

    def __init__(self, vectors, dim: int):
        self._vectors = tuple(tuple(v) for v in vectors)
        self.ambient = dim
        k = len(self._vectors)
        rows = [_int_row((*v, *basis_vec(k, i))) for i, v in enumerate(self._vectors)]
        frac_rows, pivots = _sparse_rref(rows, dim + k)
        r = sum(1 for p in pivots if p < dim)  # pivots ascend: basis rows first
        self._independent = r == k
        self.pivots = tuple(pivots[:r])
        self._rows = [{j: c for j, c in row.items() if j < dim} for row in frac_rows[:r]]
        self._combs = [{j - dim: c for j, c in row.items() if j >= dim} for row in frac_rows[:r]]
        self.basis = tuple(tuple(row.get(j, RAT_ZERO) for j in range(dim)) for row in self._rows)

    def _on_basis(self, v):
        """Coefficients of v on the canonical basis, or None outside the span."""
        if len(v) != self.ambient:
            raise DimensionMismatch(f"vector of length {len(v)} in a subspace of Q^{self.ambient}")
        on_basis = [v[p] for p in self.pivots]
        recon: dict = {}
        for a, row in zip(on_basis, self._rows):
            if a != 0:
                for j, c in row.items():
                    w = recon.get(j, RAT_ZERO) + a * c
                    if w == 0:
                        recon.pop(j, None)
                    else:
                        recon[j] = w
        if recon != {j: x for j, x in enumerate(v) if x != 0}:
            return None
        return on_basis

    def contains(self, v) -> bool:
        return self._on_basis(v) is not None

    def coords(self, v):
        """Coordinates of v in the given vectors, or None outside the span."""
        if not self._independent:
            raise ValueError("basis vectors are linearly dependent")
        on_basis = self._on_basis(v)
        if on_basis is None:
            return None
        out = [RAT_ZERO] * len(self._vectors)
        for a, comb in zip(on_basis, self._combs):
            if a != 0:
                for i, c in comb.items():
                    out[i] += a * c
        return tuple(out)

    def restrict(self, op):
        """The matrix of op on this subspace in the coordinates of the given
        vectors, or None when op does not map the subspace into itself."""
        cols = []
        for v in self._vectors:
            c = self.coords(mat_vec(op, v))
            if c is None:
                return None
            cols.append(c)
        return transpose(tuple(cols))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)


# ---------------------------------------------------------------------------
# splitting into joint eigenspaces over Q
# ---------------------------------------------------------------------------

def split(ops, dim: int) -> tuple:
    """(blocks, fully_split): Q^dim cut into the joint eigenspaces of the
    dim x dim matrices ops, refining by one op after another; each block is a
    canonical basis. A block stays whole, and fully_split is False, when an op
    does not preserve it or is not diagonalisable over Q on it."""
    blocks = [[basis_vec(dim, i) for i in range(dim)]]
    fully_split = True
    for op in ops:
        refined = []
        for blk in blocks:
            pieces = _eigenspaces(op, blk, dim) if len(blk) > 1 else [blk]
            if pieces is None:
                fully_split = False
                pieces = [blk]
            refined.extend(pieces)
        blocks = refined
    return blocks, fully_split


def _eigenspaces(op, blk, dim: int):
    """Canonical bases of the eigenspaces of op on span(blk), by ascending
    eigenvalue, or None when they do not exhaust span(blk) over Q."""
    restr = Subspace(blk, dim).restrict(op)
    if restr is None:
        return None
    roots, rational = _rational_roots(_min_poly(restr))
    if not rational:
        return None
    k = len(blk)
    pieces = []
    for lam in sorted(set(roots)):
        shifted = tuple(tuple(restr[r][c] - (lam if r == c else 0) for c in range(k))
                        for r in range(k))
        pieces.append(span_basis([lin_comb(kv, blk, dim) for kv in kernel_basis(shifted)],
                                 dim))
    return pieces if sum(len(p) for p in pieces) == k else None


def _min_poly(mat_a) -> list:
    """Monic minimal polynomial coefficients [c_0, ..., c_{k-1}, 1]."""
    n = len(mat_a)
    powers = [identity_mat(n)]
    while True:
        nxt = mat_mul(powers[-1], mat_a)
        cols = [tuple(p[i][j] for p in powers) for i in range(n) for j in range(n)]
        target = tuple(nxt[i][j] for i in range(n) for j in range(n))
        sol = solve(tuple(cols), target)
        if sol is not None:
            return [-c for c in sol] + [RAT_ONE]
        powers.append(nxt)


def _rational_roots(poly) -> tuple:
    """(roots, fully_split); coefficients ascending, monic up to scaling."""
    poly = [Fraction(c) for c in poly]
    roots = []
    while len(poly) > 1:
        if poly[0] == 0:
            roots.append(Fraction(0))
            poly = poly[1:]
            continue
        den = 1
        for c in poly:
            den = den * c.denominator // gcd(den, c.denominator)
        ip = [int(c * den) for c in poly]
        a0, ak = abs(ip[0]), abs(ip[-1])
        found = None
        for p in _divisors(a0):
            for q in _divisors(ak):
                for sgn in (1, -1):
                    cand = Fraction(sgn * p, q)
                    if _poly_eval(poly, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return tuple(roots), False
        roots.append(found)
        poly = _poly_deflate(poly, found)
    return tuple(roots), True


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        return (1,)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return tuple(sorted(out))


def _poly_eval(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _poly_deflate(poly, root):
    # synthetic division, highest degree first
    rev = list(reversed(poly))
    out_rev = []
    acc = Fraction(0)
    for c in rev[:-1]:
        acc = acc * root + c
        out_rev.append(acc)
    return list(reversed(out_rev))


def _poly_gcd(a, b) -> list:
    """Monic gcd over Q of two polynomials, coefficients ascending, by
    Euclid's algorithm; a and b must not both be zero."""
    def strip(p):
        while p and p[-1] == 0:
            p.pop()
        return p
    a, b = strip([Fraction(c) for c in a]), strip([Fraction(c) for c in b])
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            strip(a)
        a, b = b, a
    return [c / a[-1] for c in a]


# ---------------------------------------------------------------------------
# order-3 structure tensors
# ---------------------------------------------------------------------------

class Tensor3:
    """Order-3 array of exact rationals with the fixed index convention
    value[i][j][k] = coefficient of k in the product / coproduct of (i, j).

    Storage is per-(i, j) coefficient rows, so sparse structure constants
    (group algebras, smash products) cost what they contain; `dense()`
    materializes the full nested array.
    """

    __slots__ = ("dims", "_rows")

    def __init__(self, dims, rows):
        self.dims = tuple(dims)
        self._rows = rows

    @staticmethod
    def from_dense(data) -> "Tensor3":
        d0 = len(data)
        d1 = len(data[0]) if d0 else 0
        d2 = len(data[0][0]) if d1 else 0
        if any(len(plane) != d1 or any(len(row) != d2 for row in plane) for plane in data):
            raise DimensionMismatch(f"ragged tensor: not every plane is {d1} x {d2}")
        read = rat_reader()
        # the "0" shortcut compares strings only, so a JSON false still reaches rat
        rows = tuple(
            tuple(
                tuple((k, f) for k, x in enumerate(data[i][j]) if x != "0" and (f := read(x)))
                for j in range(d1))
            for i in range(d0))
        return Tensor3((d0, d1, d2), rows)

    @staticmethod
    def from_entries(dims, entries) -> "Tensor3":
        """Build from an iterable of (i, j, k, value); zero values are skipped,
        repeats accumulate, and an index outside dims raises DimensionMismatch."""
        d0, d1, d2 = dims
        acc: dict = {}
        for i, j, k, v in entries:
            v = rat(v)
            if v == 0:
                continue
            cell = acc.setdefault((i, j), {})
            w = cell.get(k)
            cell[k] = v if w is None else w + v
        for (i, j), cell in acc.items():
            if not (0 <= i < d0 and 0 <= j < d1 and all(0 <= k < d2 for k in cell)):
                raise DimensionMismatch(f"an entry of cell {(i, j)} lies outside {tuple(dims)}")
        rows = tuple(
            tuple(tuple(sorted((k, c) for k, c in acc.get((i, j), {}).items() if c))
                  for j in range(d1))
            for i in range(d0))
        return Tensor3(dims, rows)

    @staticmethod
    def from_row_dicts(dims, rowdicts) -> "Tensor3":
        """Build from {(i, j): {k: value}}; absent cells are zero."""
        d0, d1, d2 = dims
        rows = tuple(
            tuple(tuple(sorted((k, v) for k, v in rowdicts.get((i, j), {}).items() if v != 0))
                  for j in range(d1))
            for i in range(d0))
        return Tensor3(dims, rows)

    def row(self, i: int, j: int):
        """Nonzero (k, coeff) pairs of the (i, j) cell."""
        return self._rows[i][j]

    def act(self, h_sp: dict, x_sp: dict) -> dict:
        """sum over i, j, k of h_i x_j t[i][j][k] e_k for sparse {index: coeff}
        operands: the action h . x when t is an action tensor."""
        out: dict = {}
        rows = self._rows
        for i, ci in h_sp.items():
            ri = rows[i]
            for j, cj in x_sp.items():
                c = ci * cj
                for k, w in ri[j]:
                    v = out.get(k, RAT_ZERO) + c * w
                    if v == 0:
                        out.pop(k, None)
                    else:
                        out[k] = v
        return out

    def entry(self, i: int, j: int, k: int) -> Fraction:
        for kk, v in self._rows[i][j]:
            if kk == k:
                return v
        return RAT_ZERO

    def out_vec(self, i: int, j: int) -> tuple:
        v = [RAT_ZERO] * self.dims[2]
        for k, c in self._rows[i][j]:
            v[k] = c
        return tuple(v)

    def dense(self) -> list:
        d0, d1, d2 = self.dims
        return [[list(self.out_vec(i, j)) for j in range(d1)] for i in range(d0)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor3) and self.dims == other.dims
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.dims, self._rows))

    def __repr__(self):
        return f"Tensor3(dims={self.dims})"


# ---------------------------------------------------------------------------
# sparse 2-leg tensor elements
# ---------------------------------------------------------------------------

class TensorElem:
    """An element of V (x) W kept as its nonzero terms {(i, j): coefficient},
    in row-major key order.

    Houses things like R in H(x)H or a separability idempotent in A(x)A.
    """

    __slots__ = ("dims", "terms")

    def __init__(self, dims, terms: dict):
        self.dims = tuple(dims)
        self.terms = terms

    @staticmethod
    def from_entries(dims, entries) -> "TensorElem":
        """Build from an iterable of ((i, j), value): repeated keys accumulate,
        zeros (also sums that cancel) are dropped, and an index outside dims
        raises DimensionMismatch."""
        d0, d1 = dims
        acc: dict = {}
        for key, v in entries:
            c = acc.get(key)
            acc[key] = rat(v) if c is None else c + rat(v)
        for i, j in acc:
            if not (0 <= i < d0 and 0 <= j < d1):
                raise DimensionMismatch(f"index {(i, j)} lies outside {tuple(dims)}")
        return TensorElem(dims, dict(sorted((k, c) for k, c in acc.items() if c != 0)))

    def items(self):
        """Nonzero ((i, j), value) pairs in row-major order."""
        return self.terms.items()

    def flip(self) -> "TensorElem":
        """The image in W (x) V under the flip: sum c e_j (x) e_i for sum c e_i (x) e_j."""
        return TensorElem(self.dims[::-1],
                          dict(sorted(((j, i), c) for (i, j), c in self.terms.items())))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorElem) and self.dims == other.dims
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dims, frozenset(self.terms.items())))

    def __repr__(self):
        return f"TensorElem(dims={self.dims}, nonzeros={len(self.terms)})"
