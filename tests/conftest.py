# ternsim is imported inside the fixtures and helpers, not here: a change
# that breaks ``import ternsim`` then fails each test module's collection
# under that module's id, instead of stopping pytest before any id exists.
import tracemalloc

import pytest


def _network(name):
    from ternsim.netlist import builtin_network
    return builtin_network(name)


def _circuit(name):
    from ternsim.netlist import elaborate
    return elaborate(_network(name))


@pytest.fixture(scope="session")
def d13():
    return _circuit("d13")


@pytest.fixture(scope="session")
def d29():
    return _circuit("d29")


@pytest.fixture(scope="session")
def display():
    return _circuit("display")


@pytest.fixture(scope="session")
def d13_network():
    return _network("d13")


@pytest.fixture(scope="session")
def d29_network():
    return _network("d29")


@pytest.fixture(scope="session")
def display_network():
    return _network("display")


def tiled_display(k):
    """k prefixed copies of the display decoder sharing A and B."""
    from ternsim.netlist.cells import GateNetwork, GateSpec
    base = _network("display")

    def net(i, n):
        return n if n in base.inputs else f"t{i}_{n}"

    gates = tuple(GateSpec(g.kind, f"t{i}_{g.name}",
                           tuple(net(i, n) for n in g.inputs), net(i, g.output))
                  for i in range(k) for g in base.gates)
    outputs = tuple((f"t{i}_{p}", net(i, n))
                    for i in range(k) for p, n in base.outputs)
    return GateNetwork(f"display_x{k}", base.inputs, outputs, gates)


# The benchmark's display switching sequence 3, (A, B) levels.
SEQUENCE_3 = [(0, 2), (2, 0), (1, 2), (2, 0), (1, 1),
              (2, 0), (0, 2), (1, 2), (2, 1), (1, 2)]


def switching(seq):
    """A new (A, B) from ``seq`` every 10 ns with a 0.5 ns slew, as the
    benchmark's display switching runs drive the inputs."""
    from ternsim.core import LEVELS
    from ternsim.engine import Stimulus
    return Stimulus({port: tuple((i * 10e-9, LEVELS[vec[k]])
                                 for i, vec in enumerate(seq))
                     for k, port in enumerate("AB")}, slew=0.5e-9)


@pytest.fixture(scope="session")
def sequence_3_run():
    """A display circuit of its own and its ``switching(SEQUENCE_3)`` run
    at the default settings, made once for the tests that read it."""
    from ternsim.engine import run_transient
    circuit = _circuit("display")
    return circuit, run_transient(circuit, switching(SEQUENCE_3))


def traced_peak(call):
    """The peak of the memory ``call()`` allocates, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
