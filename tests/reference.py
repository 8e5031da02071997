"""Small readers and constructions that only the tests use: a commutativity
test, the conjugacy classes of a group table, the pair and one-object
groupoids, the inclusion a |-> a # 1 of a smash product, a Subspace's span
as a value to compare, the generating-set closure with every product
formed by mul_sparse, and the dense scans that decompose_hr's stability and
minimality rows and cotensor_right_module's rows are compared with."""

from hopfsmash.exactlin import Echelon, Subspace, commutant_rows, kernel_basis, sp_add
from hopfsmash.weakhopf import GroupoidData


def span_of(sub) -> tuple:
    """(ambient, canonical basis) of an exactlin.Subspace: the fields that say
    which subspace it is, as one value to compare."""
    return sub.ambient, sub.basis


def is_commutative(alg) -> bool:
    """e_i e_j = e_j e_i for every pair of basis indices of alg."""
    return all(alg.mul_row(i, j) == alg.mul_row(j, i)
               for i in range(alg.dim) for j in range(i + 1, alg.dim))


def conjugacy_classes(table) -> list:
    """The conjugacy classes of a GroupTable, each sorted, listed by least element."""
    n = table.order
    seen = [False] * n
    classes = []
    for i in range(n):
        if seen[i]:
            continue
        cls = {table.table[table.table[g][i]][table.inv(g)] for g in range(n)}
        for x in cls:
            seen[x] = True
        classes.append(sorted(cls))
    return classes


def pair_groupoid(t: int) -> GroupoidData:
    """Morphisms (i, j): j -> i; the groupoid algebra is M_t(k)."""
    morphs = [(i, j) for i in range(t) for j in range(t)]
    idx = {m: a for a, m in enumerate(morphs)}
    compose = tuple(
        tuple(idx[(i, l)] if j == k else None for (k, l) in morphs)
        for (i, j) in morphs)
    return GroupoidData(
        n_objects=t,
        sources=tuple(j for (_, j) in morphs),
        targets=tuple(i for (i, _) in morphs),
        compose=compose,
        identities=tuple(idx[(o, o)] for o in range(t)),
        inverses=tuple(idx[(j, i)] for (i, j) in morphs),
    )


def one_object_groupoid(table) -> GroupoidData:
    """A group, seen as a groupoid on one object."""
    n = table.order
    return GroupoidData(
        n_objects=1,
        sources=(0,) * n,
        targets=(0,) * n,
        compose=tuple(tuple(table.table[i][j] for j in range(n)) for i in range(n)),
        identities=(table.identity,),
        inverses=tuple(table.inv(i) for i in range(n)),
    )


def include_a(s, a_sp: dict) -> dict:
    """a |-> a # 1 in the smash product s."""
    return s.factor_inclusions[0].apply_sparse(a_sp)


def generating_set_reference(alg, first=()) -> tuple:
    """hopfcore.generating_set with every product w s of a row of W by a
    generator formed by alg.mul_sparse, one-entry rows included."""
    n = alg.dim
    w = Echelon()
    todo: list = []
    gens: list = []

    def grow(v: dict) -> None:
        row = w.add(v)
        todo.extend((row, s) for s in gens)

    for i in (*first, *sorted(set(range(n)).difference(first))):
        if len(w.rows) == n:
            break
        v = w.residue({i: 1})
        if not v:
            continue
        gens.append(i)
        todo.extend((row, i) for row in w.rows.values())
        grow(v)
        while todo:
            row, s = todo.pop()
            if v := w.residue(alg.mul_sparse(row, {s: 1})):
                grow(v)
    return tuple(sorted(gens))


def hr_block_rows_reference(bg, blocks, fully_split) -> list:
    """[(name, first witness or None)] for decompose_hr's rows
    blocks_ad_and_deltaR_stable and blocks_minimal on the given blocks, by
    dense scans: e_t .ad v tested by Subspace.contains for every t and every
    vector (per block, t outer, vector inner), then the nonzero slices of
    Delta_R(v) per vector, ("leg1", f) = (id (x) e^f) Delta_R(v) before ("leg2",
    f), f ascending; and the commutant of the 2n maps e_t .ad and
    c |-> c <- p_k, each restricted to the block by Subspace.restrict."""
    h = bg.host.host
    n = h.dim
    spaces = [Subspace(blk, n) for blk in blocks]

    def slices(v):
        out = {}
        for (a, b), c in bg.braided_coalgebra.comul_sparse(v).items():
            out.setdefault(("leg1", b), {})[a] = c
            out.setdefault(("leg2", a), {})[b] = c
        return sorted(out.items())

    def stability():
        for bi, (span, blk) in enumerate(zip(spaces, blocks)):
            for t in range(n):
                for vi, v in enumerate(blk):
                    if not span.contains(bg.adjoint_action.act({t: 1}, v)):
                        yield (bi, vi, "ad", t)
            for vi, v in enumerate(blk):
                for key, sl in slices(v):
                    if not span.contains(sl):
                        yield (bi, vi, "delta_r", *key)

    def minimality():
        ops = [*map(bg.adjoint_action.plane, range(n)),
               *map(h.coalgebra.hits[1].plane, range(n))]
        for bi, (span, blk) in enumerate(zip(spaces, blocks)):
            restrs = [span.restrict(g) for g in ops]
            if None in restrs:
                yield (bi, "not_invariant")
            elif len(kernel_basis(commutant_rows(restrs, len(blk)), len(blk) ** 2)) != 1:
                yield (bi,)

    return [("blocks_ad_and_deltaR_stable", next(stability(), None)),
            ("blocks_minimal", next(minimality(), None) if fully_split else None)]


def cotensor_act_reference(n_alg, v_action):
    """(w'* (x) v).(w* (x) h (x) w) = w* (x) h v <w'*, w> by hand: act(t, x)
    for t in W* (x) V at flat index i dim V + v and x in N_W's ambient at
    flat index (i dim H + j) dim W + w."""
    nw, nh, nv = n_alg.w.dim, n_alg.htw.h.dim, v_action.dims[1]

    def act(t_vec, n_vec):
        out = {}
        n_terms = [(((k // nw) // nh, (k // nw) % nh, k % nw), c) for k, c in n_vec.items()]
        for flat, ct in t_vec.items():
            i, vv = divmod(flat, nv)
            for (ap, b, c), cn in n_terms:
                if c == i:
                    for v2, cm in v_action.act({b: 1}, {vv: 1}).items():
                        sp_add(out, ap * nv + v2, ct * cn * cm)
        return out

    return act


def cotensor_right_module_reference(n_alg, v_action, basis_v) -> list:
    """[(name, first witness or None)] for cotensor_right_module's rows on the
    basis basis_v of W* [] V, by the loops over (t, p) and (t, p, q), t outer,
    every action formed in W* (x) V by cotensor_act_reference."""
    act = cotensor_act_reference(n_alg, v_action)
    span_v = Subspace(basis_v, n_alg.w.dim * v_action.dims[1])
    n_basis, mul = n_alg.basis, n_alg.ambient.mul_sparse
    nn = len(n_basis)
    preserves = ((ti, p) for ti, t in enumerate(basis_v) for p in range(nn)
                 if not span_v.contains(act(t, n_basis[p])))
    module_law = ((ti, p, q) for ti, t in enumerate(basis_v) for p in range(nn)
                  for q in range(nn) if act(t, mul(n_basis[p], n_basis[q]))
                  != act(act(t, n_basis[p]), n_basis[q]))
    unit = ((ti,) for ti, t in enumerate(basis_v) if act(t, n_alg.ambient.unit_sparse) != t)
    return [("action_preserves_cotensor", next(preserves, None)),
            ("module_law", next(module_law, None)),
            ("unit_acts_trivially", next(unit, None))]
