import random
from operator import add

import pytest

from fusionring import VirtualCharacter, alcove_weights, build_root_system
from fusionring.sparse import addmul


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G2")


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="session")
def c2():
    return build_root_system("C2")


def random_character(rs, rng: random.Random, level: int = 3, terms: int = 3,
                     coeff: int = 3) -> VirtualCharacter:
    """Small random virtual character supported on low-level weights."""
    basis = alcove_weights(rs, level)
    out = {}
    for _ in range(terms):
        w = rng.choice(basis)
        out[w] = out.get(w, 0) + rng.randint(-coeff, coeff)
    return VirtualCharacter(out)


# Laurent polynomials in the weight-lattice group ring, as {exponent: coeff}

def laurent_add(a: dict, b: dict) -> dict:
    return addmul(dict(a), b)


def laurent_scale(a: dict, n: int) -> dict:
    return addmul({}, a, n)


def laurent_mul(a: dict, b: dict) -> dict:
    out = {}
    for ka, va in a.items():
        addmul(out, {tuple(map(add, e, ka)): c for e, c in b.items()}, va)
    return out
