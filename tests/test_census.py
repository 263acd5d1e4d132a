"""``tools/census.py`` with a fake runner: no pytest run starts per mutant."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("census",
                                               ROOT / "tools" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

REL = "src/ternsim/digital.py"  # a small file with mutants of each kind
TARGET = ROOT / REL


def fake_runner(outcome):
    """A runner giving each mutant ``outcome(its line)``; the repo's file
    must stay unchanged."""
    original = TARGET.read_text()

    def run(copy):
        assert TARGET.read_text() == original
        pairs = zip((copy / REL).read_text().splitlines(),
                    original.splitlines())
        lines = [i for i, (a, b) in enumerate(pairs, 1) if a != b]
        return outcome(lines[0]) if lines else (0, [])
    return run


def test_deterministic_and_repo_src_unchanged():
    def sources():
        return {p: p.read_bytes() for p in (ROOT / "src").rglob("*.py")}
    before = sources()
    mutants = census.mutants(REL, TARGET.read_text())
    assert mutants == census.mutants(REL, TARGET.read_text())
    assert [(m.line, m.col) for m in mutants] == sorted(
        (m.line, m.col) for m in mutants)
    assert {"and", "!=", "1"} <= {m.old for m in mutants}
    assert {"or", "==", "2"} <= {m.new for m in mutants}
    runs = [census.census([TARGET], fake_runner(
        lambda line: (line % 2, [f"tests/test_x.py::t{line}"] * (line % 2))),
        jobs=2) for _ in range(2)]
    assert runs[0] == runs[1]
    assert [r["id"] for r in runs[0]["mutants"]] == [m.id for m in mutants]
    assert sources() == before


@pytest.mark.parametrize("status", [2, 4, None], ids=["collection-error",
                                                      "usage-error",
                                                      "timeout"])
def test_nonzero_exit_without_ids_is_a_kill(status):
    first = census.mutants(REL, TARGET.read_text())[0]
    result = census.census([TARGET], fake_runner(
        lambda line: (status, []) if line == first.line else (0, [])))
    row = result["mutants"][0]
    assert (row["verdict"], row["exit"], row["killers"]) == (
        "killed", status, [])
    assert first.id not in result["survivors"]


def test_allow_listed_survivor_not_reported():
    first, *rest = census.mutants(REL, TARGET.read_text())
    allow = [{"file": REL, "code": first.code, "mutation": first.mutation,
              "reason": "for this test"}]
    result = census.census([TARGET], fake_runner(lambda line: (0, [])),
                           allow=allow)
    assert result["mutants"][0]["verdict"] == "equivalent"
    assert result["survivors"] == [
        m.id for m in rest
        if (m.code, m.mutation) != (first.code, first.mutation)]


def test_failing_baseline_refused():
    with pytest.raises(RuntimeError, match="unmutated copy"):
        census.census([TARGET], lambda copy: (1, ["tests/test_x.py::t"]))
