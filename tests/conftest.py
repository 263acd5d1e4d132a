import pytest

from ternsim.netlist import builtin_network, elaborate


@pytest.fixture(scope="session")
def d13():
    return elaborate(builtin_network("d13"))


@pytest.fixture(scope="session")
def d29():
    return elaborate(builtin_network("d29"))


@pytest.fixture(scope="session")
def display():
    return elaborate(builtin_network("display"))


@pytest.fixture(scope="session")
def d13_network():
    return builtin_network("d13")


@pytest.fixture(scope="session")
def d29_network():
    return builtin_network("d29")


@pytest.fixture(scope="session")
def display_network():
    return builtin_network("display")
