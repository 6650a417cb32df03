import pytest

from klein_lattice.cones import PositiveCone, dirichlet_domain
from klein_lattice.isometry import GeneratedGroup, Isometry
from klein_lattice.lattice import IntegerLattice


PELL = ((3, 4), (2, 3))
REFLECTION = ((1, 0), (0, -1))


@pytest.fixture(scope="session")
def pell_lattice():
    return IntegerLattice(((2, 0), (0, -4)))


@pytest.fixture(scope="session")
def pell_cone(pell_lattice):
    return PositiveCone(pell_lattice, (1, 0))


@pytest.fixture(scope="session")
def pell_group(pell_lattice):
    return GeneratedGroup(
        pell_lattice,
        (Isometry(pell_lattice, PELL),),
        word_bound=20,
        component_base=(1, 0),
    )


@pytest.fixture(scope="session")
def dihedral_group(pell_lattice):
    return GeneratedGroup(
        pell_lattice,
        (Isometry(pell_lattice, PELL), Isometry(pell_lattice, REFLECTION)),
        word_bound=12,
        component_base=(1, 0),
    )


@pytest.fixture(scope="session")
def pell_cert(pell_group, pell_cone):
    return dirichlet_domain(pell_group, pell_cone, (1, 0), word_bound=20)


@pytest.fixture(scope="session")
def dihedral_cert(dihedral_group, pell_cone):
    return dirichlet_domain(dihedral_group, pell_cone, (3, -1), word_bound=12)
