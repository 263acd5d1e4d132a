"""Design guards: code that earlier changes deleted, or confined to one file,
stays out of ``src/``.

This file is the one home of the guards: CI runs it with the rest of tier-1
and states no pattern of its own.  A guard names a regular expression, the
file or directory where the pattern may appear, and the lines it may match.
Only ``*.py`` sources are read, so cached bytecode cannot match.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

GUARDS = {
    # One device model, one transient loop and one gate pass, with no scalar
    # copy or test code in src/; the memristor gates' semantics are the
    # divider model's, with no min/max copy beside it; settling is measured,
    # not raised as a solver failure; the compiled lookups are the one gate
    # evaluator.
    "deleted names": (
        r"device_oracle|digital_oracle|mosfet_small_signal|_square_law|"
        r"_mosfet_companion|bypass|_unchanged|def march|_packing_table|"
        r"def ref_(tand|tor)\b|NotSettled|def eval_gate\b", None, None),
    # Only core.as_level and core.levels_of decide what a level is.
    # Iterating over LEVELS is fine.
    "one level check": (
        r"\bin LEVELS\b|(set|zip)\(LEVELS\b|LEVEL_SET|issuperset|"
        r"not a (ternary )?level|must be a level|level 0-2",
        "core.py", r"\bfor \w+ in LEVELS\b"),
    # Only core.check_ports words an unknown or missing input port.
    "one port check": (
        r"unknown input port|missing input port|not a signal|"
        r"dict\.fromkeys\([^)]*, 0\)", "core.py", None),
    # run_transient and steady_output are the engine's only analog entries.
    "one analog input contract": (
        r"def (solve_dc|relax_states|step|fixed_values|_dc_system|"
        r"state_vector)\(", None, None),
    # verify's display reference comes from the digit glyphs, not from the
    # segment wiring of the cell library that it checks.
    "display reference reads no wiring": (r"SEGMENT_TERMS", "netlist", None),
    # A Circuit checks itself when built: no other src/ file validates one
    # or words its own driver rule.
    "one netlist validator": (
        r"\.validate\(|two drivers|already pinned|supply pin must be named",
        "model.py", None),
    # One rule decides which stimulus events a run reached: the glitch
    # windows and the settling origin both come from analysis._events.
    "one event rule": (r"\.event_times\(", "analysis.py", None),
}


def offenders(pattern, allowed=None, exempt=None, root=SRC):
    """``path:line: text`` of each line under ``root`` that matches
    ``pattern``, outside any file or directory named ``allowed``, and does
    not match ``exempt``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if allowed in rel.parts:
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(pattern, line) and not (
                    exempt and re.search(exempt, line)):
                found.append(f"{rel}:{n}: {line.strip()}")
    return found


@pytest.mark.parametrize("guard", GUARDS)
def test_src_keeps_the_design(guard):
    assert (SRC / "ternsim" / "core.py").is_file()  # no vacuous pass
    assert offenders(*GUARDS[guard]) == []


@pytest.mark.parametrize("guard,offender", [
    ("deleted names", "def ref_tand(a, b):"),
    ("deleted names", "def ref_tor(a, b):"),
    ("deleted names", "class NotSettled(SolverError):"),
    ("deleted names", "def eval_gate(kind, inputs):"),
    ("one level check", "ok = value in LEVELS"),
    ("one port check", "raise ValueError('missing input port')"),
    ("one analog input contract", "def solve_dc(circuit):"),
    ("display reference reads no wiring",
     "from .netlist.cells import SEGMENT_TERMS"),
    ("one netlist validator", "return circuit.validate()"),
    ("one netlist validator",
     "raise ValueError(f\"node {node!r} has two drivers\")"),
    ("one event rule", "last = max(stim.event_times())"),
])
def test_guard_fires(tmp_path, guard, offender):
    files = ("analysis.py", "core.py", "netlist/cells.py")
    (tmp_path / "ternsim" / "netlist").mkdir(parents=True)
    for name in files:
        (tmp_path / "ternsim" / name).write_text(
            f"{offender}\nfor lv in LEVELS:\n")
    # Bytecode holds its source's strings; only the sources are read.
    (tmp_path / "ternsim" / "__pycache__").mkdir()
    (tmp_path / "ternsim" / "__pycache__" / "core.cpython-311.pyc"
     ).write_bytes(offender.encode())
    allowed = GUARDS[guard][1]
    assert offenders(*GUARDS[guard], root=tmp_path) == [
        f"ternsim/{name}:1: {offender}" for name in files
        if allowed not in Path(name).parts]
