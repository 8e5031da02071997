"""Shared worlds, session-scoped: the expensive constructions (doubles, the
54-dimensional enveloping algebra, the smash weak structure) are built once."""

import hashlib
import sys
from fractions import Fraction

import pytest

from hopfsmash import demos as dm
from hopfsmash.exactlin import Tensor3, TensorElem
from hopfsmash.hopfcore import drinfeld_double, integrals
from hopfsmash.modalg import separability
from hopfsmash.qtriang import transmute, trivial_qt


def _structure_digest(*parts) -> str:
    """First 16 hex digits of a sha256 over the exact entries of each part:
    the cells of a Tensor3, the terms of a TensorElem, or nested tuples of
    scalars. Each scalar is read as a Fraction, so an int and the equal
    Fraction give one digest."""
    def scalars(x):
        return tuple(map(scalars, x)) if isinstance(x, tuple) else Fraction(x)

    def canon(x):
        if isinstance(x, Tensor3):
            d0, d1, _ = x.dims
            return repr([(i, j, tuple((k, Fraction(c)) for k, c in x.row(i, j)))
                         for i in range(d0) for j in range(d1)])
        if isinstance(x, TensorElem):
            return repr(sorted((key, Fraction(c)) for key, c in x.items()))
        return repr(scalars(x))
    return hashlib.sha256("|".join(canon(p) for p in parts).encode()).hexdigest()[:16]


def _even_part(m, even):
    """The sub-module algebra of the module algebra m on the basis vectors
    listed in even, in that order, with its product and action read in
    their coordinates."""
    from hopfsmash.exactlin import Subspace
    from hopfsmash.hopfcore import StructureAlgebra
    from hopfsmash.modalg import ModuleAlgebraData
    vectors = [{e: 1} for e in even]
    span = Subspace(vectors, m.A.dim)
    mult, _ = span.restricted(m.A.mult, vectors, vectors)
    action, _ = span.restricted(m.action, [{d: 1} for d in range(m.host.dim)], vectors)
    unit = tuple(m.A.unit[e] for e in even)
    return ModuleAlgebraData(m.host, StructureAlgebra(len(even), mult, unit), action)


def _ka3_world(ks3, double=None):
    """(kA3, R of D(kS3)): kA3 is the span of the even permutations in the
    D(kS3)-module algebra double_module_algebra(kS3), a sub-module algebra
    since it is closed under products, conjugation and the grading.  Its host
    D(kS3) is not cocommutative and its R has more than one term."""
    from hopfsmash.smashcons import double_module_algebra
    m, q = double_module_algebra(ks3, double)
    even = [i for i, p in enumerate(dm.s3_table().elements)
            if sum(a > b for j, a in enumerate(p) for b in p[j + 1:]) % 2 == 0]
    return _even_part(m, even), q


@pytest.fixture(scope="session")
def structure_digest():
    """Pins structure tensors to their exact values without spelling them out."""
    return _structure_digest


@pytest.fixture(scope="session")
def dense():
    """dense(v, n): a sparse vector as the tuple of its n entries, the form in
    which the pinned digests were taken."""
    return lambda v, n: tuple(v.get(i, Fraction(0)) for i in range(n))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) -> the first arguments of every later call of
    module.name, under each hopfsmash binding of it (a `from .x import f`
    keeps its own reference)."""
    def install(module, name):
        real = getattr(module, name)
        calls = []

        def counted(obj, *args, **kwargs):
            calls.append(obj)
            return real(obj, *args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("hopfsmash") and \
                    getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
        return calls
    return install


@pytest.fixture(scope="session")
def z2_table():
    return dm.z2_table()


@pytest.fixture(scope="session")
def s3_table():
    return dm.s3_table()


@pytest.fixture(scope="session")
def kz2():
    return dm.k_z2()


@pytest.fixture(scope="session")
def ks3():
    return dm.k_s3()


@pytest.fixture(scope="session")
def q_s3(ks3):
    return trivial_qt(ks3)


@pytest.fixture(scope="session")
def q_z2(kz2):
    return trivial_qt(kz2)


@pytest.fixture(scope="session")
def bg_s3(q_s3):
    return transmute(q_s3)


@pytest.fixture(scope="session")
def ip_s3(ks3):
    return integrals(ks3)


@pytest.fixture(scope="session")
def ip_z2(kz2):
    return integrals(kz2)


@pytest.fixture(scope="session")
def m3(ks3):
    return dm.k3_module_algebra(ks3)


@pytest.fixture(scope="session")
def sep3(m3):
    return separability(m3)


@pytest.fixture(scope="session")
def double_z2(kz2):
    return drinfeld_double(kz2)


@pytest.fixture(scope="session")
def double_s3(ks3):
    return drinfeld_double(ks3)


@pytest.fixture(scope="session")
def ka3_s3(ks3, double_s3):
    return _ka3_world(ks3, double_s3)


@pytest.fixture(scope="session")
def smash18(m3):
    from hopfsmash.smashcons import smash_algebra
    return smash_algebra(m3)


@pytest.fixture(scope="session")
def sws18(smash18, q_s3, sep3):
    from hopfsmash.smashcons import smash_weak_structure
    return smash_weak_structure(smash18, q_s3, sep3)


@pytest.fixture(scope="session")
def b54(m3, q_s3, sep3):
    from hopfsmash.smashcons import build_B
    return build_B(m3, q_s3, sep3)


@pytest.fixture(scope="session")
def hr_decomposition(bg_s3):
    from hopfsmash.adjstable import decompose_hr
    return decompose_hr(bg_s3)


@pytest.fixture(scope="session")
def transposition_block(hr_decomposition):
    return [b for b in hr_decomposition.blocks if len(b) == 3][0]


@pytest.fixture(scope="session")
def double_mod_z2(kz2, double_z2):
    from hopfsmash.smashcons import double_module_algebra
    return double_module_algebra(kz2, double_z2)
