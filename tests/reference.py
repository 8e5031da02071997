"""Small readers and constructions that only the tests use: a commutativity
test, the conjugacy classes of a group table, the pair and one-object
groupoids, the inclusion a |-> a # 1 of a smash product, and a Subspace's
span as a value to compare."""

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
