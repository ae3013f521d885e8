import pytest
from hypothesis import settings

from spanalg import (AllegoryView, FinSetCategory, default_carrier, e_bullet,
                     e_circ, m_star, make_equivalence)
from spanalg.systems import finset_system

# fixed examples and no per-example deadline, so runs repeat on a loaded machine
settings.register_profile("spanalg", derandomize=True, deadline=None)
settings.load_profile("spanalg")


@pytest.fixture(scope="session")
def C():
    return FinSetCategory(3)


@pytest.fixture(scope="session")
def carrier(C):
    return default_carrier(C)


@pytest.fixture(scope="session")
def surj_inj(C):
    return finset_system(C, "surj-inj")


@pytest.fixture(scope="session")
def iso_all(C):
    return finset_system(C, "iso-all")


@pytest.fixture(scope="session")
def all_iso(C):
    return finset_system(C, "all-iso")


@pytest.fixture(scope="session")
def rel_view(C, surj_inj):
    return AllegoryView(C, make_equivalence(C, "simE", surj_inj), objects=range(4))


@pytest.fixture(scope="session")
def ebullet_class(C, iso_all, carrier, mstar_class):
    return e_bullet(C, iso_all, carrier, mstar_class)


@pytest.fixture(scope="session")
def ecirc_class(C, iso_all, carrier):
    return e_circ(C, iso_all.E, carrier)


@pytest.fixture(scope="session")
def mstar_class(C, iso_all, carrier):
    return m_star(C, iso_all.M, carrier)


@pytest.fixture(scope="session")
def ebullet_view(C, ebullet_class):
    return AllegoryView(C, make_equivalence(C, "simEbullet", e_class=ebullet_class),
                        objects=range(4))
