"""Exact rational linear algebra: sparse vectors, linear maps, order-3
structure tensors, sparse 2-leg tensor elements, and the nullspace / solving
primitives used by every other module.

Conventions, fixed once:
  * scalars are exact: an `int` where integral, else a `fractions.Fraction`
    (lowest terms, denominator > 0). `rat` reads them so and `qdiv` is the one
    division, since int / int would be a float. A sum or product of Fractions
    may be an integral Fraction; it equals, hashes and prints as its int;
  * a vector is a sparse dict {index: scalar} of its nonzero entries, and
    subspaces, kernels, solutions and coordinates are given as such vectors.
    The one dense exception is an algebra's unit and a coalgebra's counit,
    tuples of scalars, besides the JSON read and write paths of the CLI;
  * a linear map is a LinearMap, its columns f(e_c) as sparse vectors; a
    system of linear equations is a list of sparse rows;
  * Tensor3 t stores t[i][j][k] = coefficient of basis vector k in the
    product (resp. of e_j (x) e_k in the coproduct) of basis vectors i, j.

One elimination, `Echelon`, reduces every linear system: rows over the
rationals with leading coefficient 1, grown one vector at a time and read
off in reduced echelon form, which is canonical.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd


class DimensionMismatch(ValueError):
    """Shapes of the operands do not line up."""


def _exact(f: Fraction) -> int | Fraction:
    return f.numerator if f.denominator == 1 else f


def rat(x) -> int | Fraction:
    """Coerce an int, string 'p/q', or Fraction to an exact scalar: the int
    when it is integral, else the Fraction. An `int` is returned at once, as
    it is already exact; any other int subclass comes back as a plain int. A
    bool or a float raises TypeError; a string that is not a rational or has
    a zero denominator raises ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, Fraction):
        return _exact(x)
    if isinstance(x, str):
        try:
            return _exact(Fraction(x))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def qdiv(a, b) -> int | Fraction:
    """a / b for exact scalars: the int when the quotient is integral, else
    the Fraction; b == 0 raises ZeroDivisionError. The one division of the
    package, as int / int would be a float."""
    return _exact(Fraction(a, b))


def rat_reader():
    """A `rat` that parses each distinct string token once, for one read of a
    workspace array. Only `str` tokens are memoised: False == 0 and
    hash(False) == hash(0), so a memo keyed on values would read false as 0;
    every other token goes through `rat` and is refused as before."""
    memo: dict = {}

    def read(x) -> int | Fraction:
        if type(x) is not str:
            return rat(x)
        f = memo.get(x)
        if f is None:
            f = memo[x] = rat(x)
        return f
    return read


def rat_str(x: int | Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is 1; an int and the
    equal Fraction give the same text."""
    return str(x)


# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------

def _array(x):
    """x, when it is a list or a tuple; a TypeError otherwise, so that a JSON
    string or object is never read as the array of its characters or keys."""
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"expected an array, not {type(x).__name__}")
    return x


def vec(entries) -> tuple:
    """A dense vector of exact rationals, for a unit or a counit."""
    return tuple(map(rat_reader(), _array(entries)))


def mat(rows) -> tuple:
    """A dense row-major matrix of exact rationals, read at the boundary."""
    read = rat_reader()
    m = tuple(tuple(map(read, _array(r))) for r in _array(rows))
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged rows")
    return m


def sp(v) -> dict:
    """Dense vector -> sparse {index: coeff}."""
    return {i: c for i, c in enumerate(v) if c != 0}


def sp_add(acc: dict, key, c) -> None:
    w = acc.get(key, 0) + c
    if w == 0:
        acc.pop(key, None)
    else:
        acc[key] = w


def sp_scale(d: dict, c: int | Fraction) -> dict:
    if c == 0:
        return {}
    return {k: c * v for k, v in d.items()}


def vec_dot(u: dict, v: dict) -> int | Fraction:
    """sum_i u_i v_i of two sparse vectors, e.g. a functional and a vector."""
    if len(u) > len(v):
        u, v = v, u
    return sum(c * v[i] for i, c in u.items() if i in v)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

class Record:
    """A record whose fields are the names annotated in its class body, after
    those of its bases, read once per class; a value assigned to a field in
    the class body is its default.  Instances compare == (only to the same
    class), hash and print field by field, as frozen dataclasses do, and
    refuse setattr and delattr.  The constructor takes the fields in order or
    by keyword and stores them through vars(self), where cached properties
    also keep their values; a subclass that must do more than store its
    fields writes its own.  `class C(Record, mutable=True)` keeps the fields
    assignable and the instances unhashable."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, mutable: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields += own
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        if mutable:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        for f in kwargs:
            if f not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {f!r}")
            if f in fields[:len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {f!r}")
        values = vars(self)
        values.update(self._defaults)
        values.update(zip(fields, args))
        values.update(kwargs)
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments {missing}")

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a read-only {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a read-only {type(self).__name__}")


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

class LinearMap(Record):
    """A linear map between based spaces, kept as its columns: cols[c] is
    f(e_c) as a sparse {row: scalar} dict.  Equality, hash and is_identity
    read the matrix, so an explicit zero a caller gave does not count.

    The column dicts are shared by every reader, so read them and never
    modify them; compose, transpose and inverse build new ones.
    """

    source_dim: int
    target_dim: int
    cols: tuple

    def __init__(self, source_dim, target_dim, cols):
        cols = tuple(cols)
        rows = set().union(*cols)    # every key of every column, for one min and max
        if len(cols) != source_dim or not (
                0 <= min(rows, default=0) and max(rows, default=-1) < target_dim):
            raise DimensionMismatch("columns disagree with the declared dims")
        vars(self).update(source_dim=source_dim, target_dim=target_dim, cols=cols)

    @staticmethod
    def from_matrix(m) -> "LinearMap":
        """The map of a target x source matrix of rationals (M[r][c] is the
        coefficient of e_r in f(e_c)); a ragged matrix raises DimensionMismatch."""
        m = mat(m)
        ncols = len(m[0]) if m else 0
        return LinearMap(ncols, len(m), tuple({r: row[c] for r, row in enumerate(m) if row[c] != 0}
                                              for c in range(ncols)))

    @staticmethod
    def identity(n: int) -> "LinearMap":
        """The identity map of Q^n."""
        return LinearMap(n, n, tuple({c: 1} for c in range(n)))

    @property
    def matrix(self) -> tuple:
        """The dense target x source matrix, for serialisation and tests."""
        return tuple(tuple(col.get(r, 0) for col in self.cols)
                     for r in range(self.target_dim))

    def _nonzero(self) -> tuple:
        """The columns without the explicit zeros a caller may have given."""
        return tuple({r: x for r, x in col.items() if x} for col in self.cols)

    def __eq__(self, other) -> bool:
        """Equal matrices: explicit zero entries do not count."""
        return (isinstance(other, LinearMap) and self.target_dim == other.target_dim
                and (self.cols == other.cols or self._nonzero() == other._nonzero()))

    def __hash__(self):
        return hash((self.target_dim, tuple(frozenset(col.items()) for col in self._nonzero())))

    def apply_sparse(self, a: dict) -> dict:
        out: dict = {}
        for c, x in a.items():
            for r, w in self.cols[c].items():
                sp_add(out, r, x * w)
        return out

    def compose(self, other: "LinearMap") -> "LinearMap":
        if other.target_dim != self.source_dim:
            raise DimensionMismatch("maps do not compose")
        return LinearMap(other.source_dim, self.target_dim,
                         tuple(self.apply_sparse(col) for col in other.cols))

    def transpose(self) -> "LinearMap":
        """The transposed map; its columns are this map's rows."""
        cols = tuple({} for _ in range(self.target_dim))
        for c, col in enumerate(self.cols):
            for r, x in col.items():
                cols[r][c] = x
        return LinearMap(self.target_dim, self.source_dim, cols)

    def is_identity(self) -> bool:
        return self == LinearMap.identity(self.source_dim)

    def rank(self) -> int:
        return rank(self.cols, self.target_dim)

    def inverse(self):
        """The inverse map, or None when this map is singular.  Eliminating the
        rows f(e_c) (+) e_c leaves e_i (+) f^{-1}(e_i) as row i exactly when
        f is invertible."""
        n = self.source_dim
        if self.target_dim != n:
            raise DimensionMismatch("inverse of a map between spaces of different dims")
        ech = Echelon({**col, n + c: 1} for c, col in enumerate(self.cols))
        if any(i not in ech.rows for i in range(n)):
            return None
        return LinearMap(n, n, tuple({j - n: x for j, x in row.items() if j >= n}
                                     for row in ech.reduced()))


def commutant_rows(ops, m: int) -> list:
    """Sparse linear equations X g = g X, one per nonzero matrix entry, on the
    m x m unknown X flattened row-major; their kernel is the commutant of the
    given maps of Q^m."""
    rows = []
    for g in ops:
        g_rows = g.transpose().cols
        for r in range(m):
            for c in range(m):
                row: dict = {}
                for k, x in g.cols[c].items():
                    sp_add(row, r * m + k, x)
                for k, x in g_rows[r].items():
                    sp_add(row, k * m + c, -x)
                if row:
                    rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# elimination: one Echelon, canonical RREF bases, kernels
# ---------------------------------------------------------------------------

def _check_dim(v: dict, dim: int) -> dict:
    if v and not (0 <= min(v) and max(v) < dim):
        raise DimensionMismatch(f"a vector has an index outside Q^{dim}")
    return v


class Echelon:
    """A subspace grown one vector at a time, as echelon rows with leading
    coefficient 1 kept by leading index.  Echelon(rows) is the span of the
    given sparse rows, read with their zero entries dropped.  residue(v)
    reduces v in place and returns it, empty exactly when v lies in the span;
    so pass a copy of a vector the caller still holds.  add(v) takes a nonzero
    residue in as a row and returns that row.  reduced() lists the rows in
    reduced echelon form."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows: dict = {}    # leading index -> row, leading coefficient 1
        for row in rows:
            if v := self.residue({j: x for j, x in row.items() if x}):
                self.add(v)

    def residue(self, v: dict) -> dict:
        rows = self.rows
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                return v
            c = v[lead]
            for k, x in row.items():
                sp_add(v, k, -c * x)
        return v

    def add(self, v: dict) -> dict:
        lead = min(v)
        c = v[lead]
        row = self.rows[lead] = {k: qdiv(x, c) for k, x in v.items()}
        return row

    def reduced(self) -> list:
        """The canonical basis of the span: new rows, each cleared above its
        lead (so every lead is 0 in every other row), listed by ascending
        lead, each with its keys ascending and every scalar through rat."""
        leads = sorted(self.rows)
        done: dict = {}    # lead -> reduced row, for the leads already passed
        for lead in reversed(leads):
            row = dict(self.rows[lead])
            # a reduced row holds no lead but its own, so clearing one lead
            # of row adds no other
            for j in [j for j in row if j in done]:
                c = row[j]
                for k, x in done[j].items():
                    sp_add(row, k, -c * x)
            done[lead] = row
        return [{k: rat(x) for k, x in sorted(done[lead].items())} for lead in leads]


def rank(vectors, dim: int) -> int:
    """The dimension of the span of sparse vectors of Q^dim."""
    return len(Echelon(_check_dim(v, dim) for v in vectors).rows)


def kernel_basis(rows, ncols: int) -> list:
    """Exact basis of {v in Q^ncols : row . v = 0 for every sparse row}, as
    sparse vectors; [] iff the rows have rank ncols."""
    reduced = Echelon(_check_dim(r, ncols) for r in rows).reduced()
    pivots = [next(iter(row)) for row in reduced]
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = {p: -c for row, p in zip(reduced, pivots) if (c := row.get(f)) is not None}
        v[f] = 1
        basis.append(v)
    return basis


def span_basis(vectors, dim: int) -> list:
    """Canonical (RREF) basis of the span of sparse vectors of Q^dim."""
    return Echelon(_check_dim(v, dim) for v in vectors).reduced()


def span_closure(seed, images, dim: int) -> list:
    """Canonical basis of the least subspace of Q^dim that contains the seed
    vectors and is closed under the linear maps whose values at v images(v)
    lists.  The images of each row are reduced once, as the row joins."""
    ech = Echelon()
    todo: list = []    # rows whose images are not yet reduced

    def take(vectors) -> None:
        for v in vectors:
            if v := ech.residue(dict(_check_dim(v, dim))):
                todo.append(ech.add(v))

    take(seed)
    while todo:
        take(images(todo.pop()))
    return ech.reduced()


class Subspace:
    """The span of the given sparse vectors in Q^dim, from one elimination of
    the vectors augmented with the identity, [v_1 .. v_k | I_k].

    The reduced rows with a pivot among the first dim columns form `basis`,
    the canonical basis that span_basis(vectors, dim) lists; `pivots` are their
    pivot columns, a column basis of the matrix [v_1 .. v_k]. Their last k columns
    say which combination of the given vectors makes each basis vector. A row
    whose pivot lies beyond dim records a dependence among the given vectors.
    Membership and coordinate queries then cost one pass over the basis.
    """

    __slots__ = ("ambient", "basis", "pivots", "_vectors", "_independent", "_combs")

    def __init__(self, vectors, dim: int):
        self._vectors = tuple(vectors)
        self.ambient = dim
        k = len(self._vectors)
        reduced = Echelon({**_check_dim(v, dim), dim + i: 1}
                          for i, v in enumerate(self._vectors)).reduced()
        rows = [row for row in reduced if next(iter(row)) < dim]
        self._independent = len(rows) == k
        self.pivots = tuple(next(iter(row)) for row in rows)
        self.basis = tuple({j: c for j, c in row.items() if j < dim} for row in rows)
        self._combs = [{j - dim: c for j, c in row.items() if j >= dim} for row in rows]

    def _on_basis(self, v: dict):
        """Coefficients of v on the canonical basis, or None outside the span."""
        _check_dim(v, self.ambient)
        on_basis = [v.get(p, 0) for p in self.pivots]
        recon: dict = {}
        for a, row in zip(on_basis, self.basis):
            if a != 0:
                for j, c in row.items():
                    sp_add(recon, j, a * c)
        if recon != {j: x for j, x in v.items() if x != 0}:
            return None
        return on_basis

    def contains(self, v: dict) -> bool:
        return self._on_basis(v) is not None

    def coords(self, v: dict):
        """Coordinates of v in the given vectors as a sparse vector of Q^k, or
        None outside the span."""
        if not self._independent:
            raise ValueError("basis vectors are linearly dependent")
        on_basis = self._on_basis(v)
        if on_basis is None:
            return None
        out: dict = {}
        for a, comb in zip(on_basis, self._combs):
            if a != 0:
                for i, c in comb.items():
                    sp_add(out, i, a * c)
        return out

    def restrict(self, op: LinearMap):
        """The map op on this subspace in the coordinates of the given
        vectors, or None when op does not map the subspace into itself."""
        cols = []
        for v in self._vectors:
            c = self.coords(op.apply_sparse(v))
            if c is None:
                return None
            cols.append(c)
        return LinearMap(len(cols), len(cols), cols)

    def restricted(self, t: Tensor3, xs, ys) -> tuple:
        """(u, None), u the Tensor3 with u[p][q][r] the coefficient of the r-th
        given vector in t.act(xs[p], ys[q]) (zero values skipped); or
        (None, (p, q)) for the first pair, p outer, whose value leaves the span."""
        planes = []
        for p, x in enumerate(xs):
            cells: dict = {}
            for q, y in enumerate(ys):
                if v := t.act(x, y):
                    c = cells[q] = self.coords(v)
                    if c is None:
                        return None, (p, q)
            planes.append(sorted_plane(len(ys), cells))
        return Tensor3((len(planes), len(ys), len(self._vectors)), tuple(planes)), None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)


# ---------------------------------------------------------------------------
# splitting into joint eigenspaces over Q
# ---------------------------------------------------------------------------

def split(ops, dim: int) -> tuple:
    """(blocks, fully_split): Q^dim cut into the joint eigenspaces of the
    LinearMaps ops of Q^dim, refining by one op after another; each block is
    a canonical basis. A block stays whole, and fully_split is False, when an
    op does not preserve it or is not diagonalisable over Q on it."""
    blocks = [[{i: 1} for i in range(dim)]]
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


def _eigenspaces(op: LinearMap, blk, dim: int):
    """Canonical bases of the eigenspaces of op on span(blk), by ascending
    eigenvalue, or None when they do not exhaust span(blk) over Q."""
    restr = Subspace(blk, dim).restrict(op)
    if restr is None:
        return None
    roots, rational = _rational_roots(_min_poly(restr))
    if not rational:
        return None
    k = len(blk)
    on_blk = LinearMap(k, dim, blk)
    restr_rows = restr.transpose().cols
    pieces = []
    for lam in sorted(set(roots)):
        shifted = []
        for r, row in enumerate(restr_rows):
            row = dict(row)
            sp_add(row, r, -lam)
            shifted.append(row)
        pieces.append(span_basis([on_blk.apply_sparse(kv) for kv in kernel_basis(shifted, k)],
                                 dim))
    return pieces if sum(len(p) for p in pieces) == k else None


def _min_poly(op: LinearMap) -> list:
    """Monic minimal polynomial coefficients [c_0, ..., c_{k-1}, 1] of a map
    of Q^n: the first power of op in the span of the lower ones.

    The Krylov sequence op^0, op^1, ... is reduced into one Echelon, each
    power flattened and tagged with 1 at coordinate n^2 + k.  The residue of
    op^k is the tagged combination op^k - sum_j b_j op^j of the lower powers,
    so once its flat part vanishes its tags are the coefficients."""
    n = op.source_dim
    nn = n * n
    ech = Echelon()
    power = LinearMap.identity(n)
    while True:
        k = len(ech.rows)    # power = op^k
        flat = {c * n + r: x for c, col in enumerate(power.cols) for r, x in col.items()}
        flat[nn + k] = 1
        v = ech.residue(flat)
        if min(v) >= nn:
            return [v.get(nn + j, 0) for j in range(k)] + [1]
        ech.add(v)
        power = power.compose(op)


def _rational_roots(poly) -> tuple:
    """(roots, fully_split); coefficients ascending, monic up to scaling."""
    roots = []
    while len(poly) > 1:
        if poly[0] == 0:
            roots.append(0)
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
                    cand = qdiv(sgn * p, q)
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
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _poly_deflate(poly, root):
    # synthetic division, highest degree first
    rev = list(reversed(poly))
    out_rev = []
    acc = 0
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
    a, b = strip(list(a)), strip(list(b))
    while b:
        while len(a) >= len(b):
            q = qdiv(a[-1], b[-1])
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            strip(a)
        a, b = b, a
    return [qdiv(c, a[-1]) for c in a]


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
        d0 = len(_array(data))
        d1 = len(_array(data[0])) if d0 else 0
        d2 = len(_array(data[0][0])) if d1 else 0
        if any(len(_array(plane)) != d1 or any(len(_array(row)) != d2 for row in plane)
               for plane in data):
            raise DimensionMismatch(f"ragged tensor: not every plane is {d1} x {d2}")
        read = rat_reader()
        # the "0" shortcut compares strings only, so a JSON false still reaches rat
        rows = tuple(
            tuple(
                () if row.count("0") == d2
                else tuple((k, f) for k, x in enumerate(row) if x != "0" and (f := read(x)))
                for row in data[i])
            for i in range(d0))
        return Tensor3((d0, d1, d2), rows)

    @staticmethod
    def from_entries(dims, entries) -> "Tensor3":
        """Build from an iterable of (i, j, k, value): repeats accumulate, an
        index outside dims raises DimensionMismatch (also when its value is
        zero), and each cell that received an entry is written by
        `sorted_cell`, so zeros and sums that cancel are dropped. The rest
        of the cells stay ()."""
        d0, d1, d2 = dims
        acc: dict = {}
        for i, j, k, v in entries:
            if type(v) is not int:
                v = rat(v)
            cell = acc.get((i, j))
            if cell is None:
                acc[(i, j)] = {k: v}
            else:
                cell[k] = cell.get(k, 0) + v
        for (i, j), cell in acc.items():
            if not (0 <= i < d0 and 0 <= j < d1 and 0 <= min(cell) and max(cell) < d2):
                raise DimensionMismatch(f"an entry of cell {(i, j)} lies outside {tuple(dims)}")
        planes = [[()] * d1 for _ in range(d0)]
        for (i, j), cell in acc.items():
            planes[i][j] = sorted_cell(cell)
        return Tensor3(dims, tuple(map(tuple, planes)))

    @staticmethod
    def from_row_dicts(dims, rowdicts) -> "Tensor3":
        """Build from {(i, j): {k: value}} by from_entries; absent cells are zero."""
        return Tensor3.from_entries(dims, ((i, j, k, v) for (i, j), cell in rowdicts.items()
                                           for k, v in cell.items()))

    def row(self, i: int, j: int):
        """Nonzero (k, coeff) pairs of the (i, j) cell."""
        return self._rows[i][j]

    def support(self) -> tuple:
        """(right, left): right[i] lists the j whose cell (i, j) is nonempty,
        and left[j] the i, each ascending."""
        cols = range(self.dims[1])
        right = tuple(tuple(compress(cols, plane)) for plane in self._rows)
        left = [[] for _ in cols]
        for i, js in enumerate(right):
            for j in js:
                left[j].append(i)
        return right, tuple(map(tuple, left))

    def permuted(self, order) -> "Tensor3":
        """The tensor u with u[i_order[0]][i_order[1]][i_order[2]] =
        t[i_0][i_1][i_2]: leg m of u is leg order[m] of t.  So (1, 0, 2) of a
        product is the opposite product, (0, 2, 1) of a coproduct the
        co-opposite one, and a row of a permutation reads t along any leg."""
        if sorted(order) != [0, 1, 2]:
            raise ValueError(f"{order!r} is not an order of the legs 0, 1, 2")
        a, b, c = order
        entries = []
        for i, plane in enumerate(self._rows):
            for j, cell in enumerate(plane):
                for k, v in cell:
                    idx = (i, j, k)
                    entries.append((idx[a], idx[b], idx[c], v))
        return Tensor3.from_entries(tuple(self.dims[m] for m in order), entries)

    def kron(self, u: "Tensor3") -> "Tensor3":
        """The outer product w[i n0 + i'][j n1 + j'][k n2 + k'] = t[i][j][k]
        u[i'][j'][k'] for u of dims (n0, n1, n2): the tensor product of two
        algebras or two coalgebras on the flat index x * n + y.  A cell is the
        outer product of a nonempty cell of t and one of u, listed by the
        supports, formed once and already sorted, so it is written directly;
        a product goes through `rat` only when it is not an int."""
        d0, d1, d2 = self.dims
        n0, n1, n2 = u.dims
        m1 = d1 * n1
        # u_cells[i']: the (j', cell u[i'][j']) with the cell nonempty
        u_cells = [[(j2, plane[j2]) for j2 in right]
                   for plane, right in zip(u._rows, u.support()[0])]
        planes = []
        for plane_t, right in zip(self._rows, self.support()[0]):
            for i2 in range(n0):
                plane = [()] * m1
                for j1 in right:
                    rt, col = plane_t[j1], j1 * n1
                    for j2, ru in u_cells[i2]:
                        plane[col + j2] = tuple([
                            (k * n2 + m, c if type(c := ct * cu) is int else rat(c))
                            for k, ct in rt for m, cu in ru])
                planes.append(tuple(plane))
        return Tensor3((d0 * n0, m1, d2 * n2), tuple(planes))

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
                    v = out.get(k, 0) + c * w
                    if v == 0:
                        out.pop(k, None)
                    else:
                        out[k] = v
        return out

    def entry(self, i: int, j: int, k: int) -> int | Fraction:
        for kk, v in self._rows[i][j]:
            if kk == k:
                return v
        return 0

    def dense(self) -> list:
        """The full nested array, for tests."""
        d0, d1, d2 = self.dims
        out = [[[0] * d2 for _ in range(d1)] for _ in range(d0)]
        for i, plane in enumerate(out):
            for j, row in enumerate(plane):
                for k, c in self._rows[i][j]:
                    row[k] = c
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor3) and self.dims == other.dims
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.dims, self._rows))

    def __repr__(self):
        return f"Tensor3(dims={self.dims})"


def sorted_cell(acc: dict) -> tuple:
    """The nonzero (k, value) pairs of an accumulator {k: value}, k ascending:
    the one writer of a structure-tensor cell. A value goes through `rat` only
    when it is not already an int, so an integral Fraction becomes its int;
    a one-entry accumulator is written without a sort."""
    if len(acc) == 1:
        [(k, v)] = acc.items()
        return ((k, v if type(v) is int else rat(v)),) if v else ()
    return tuple(sorted([(k, v if type(v) is int else rat(v)) for k, v in acc.items() if v]))


def sorted_plane(d1: int, cells: dict) -> tuple:
    """A plane of d1 cells from accumulators {j: {k: value}}: cell j is
    `sorted_cell` of its accumulator, and every other cell is ()."""
    plane = [()] * d1
    for j, cell in cells.items():
        plane[j] = sorted_cell(cell)
    return tuple(plane)


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
        an index outside dims raises DimensionMismatch (also when its value is
        zero), and the terms are `sorted_cell` of the sums, so zeros and sums
        that cancel are dropped."""
        d0, d1 = dims
        acc: dict = {}
        for key, v in entries:
            if type(v) is not int:
                v = rat(v)
            acc[key] = acc.get(key, 0) + v
        for i, j in acc:
            if not (0 <= i < d0 and 0 <= j < d1):
                raise DimensionMismatch(f"index {(i, j)} lies outside {tuple(dims)}")
        return TensorElem(dims, dict(sorted_cell(acc)))

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
