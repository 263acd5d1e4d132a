"""``tools/census.py`` with a fake runner: no pytest run starts per mutant."""

import importlib.util
import json
import types
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

    def run(copy, timeout):
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


@pytest.mark.parametrize("status", [2, 4], ids=["collection-error",
                                                "usage-error"])
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


@pytest.mark.parametrize("baseline,limit", [(3.0, 60), (40.0, 200.0)],
                         ids=["floor", "factor"])
def test_limit_from_the_baseline_run(monkeypatch, baseline, limit):
    # The baseline runs with no limit; each mutant run gets
    # max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * the baseline's wall time), and a
    # run that the limit ends (status None, no ids) is a kill.
    now, limits = [0.0], []
    monkeypatch.setattr(census, "time",
                        types.SimpleNamespace(monotonic=lambda: now[0]))
    first = census.mutants(REL, TARGET.read_text())[0]
    outcomes = fake_runner(
        lambda line: (None, []) if line == first.line else (0, []))

    def run(copy, timeout):
        limits.append(timeout)
        if timeout is None:  # the baseline
            now[0] += baseline
        return outcomes(copy, timeout)

    result = census.census([TARGET], run)
    assert limits == [None] + [limit] * len(result["mutants"])
    row = result["mutants"][0]
    assert (row["id"], row["verdict"], row["exit"], row["killers"]) == (
        first.id, "killed", None, [])


def test_main_fails_only_on_an_unlisted_survivor(monkeypatch, capsys):
    # main is what CI runs.  digital.py has one mutant listed in
    # census_allow.json: with it the only survivor, main exits 0; with one
    # more survivor, it exits 1 and names that one.
    allow = json.loads(census.ALLOW.read_text())
    mutants = census.mutants(REL, TARGET.read_text())
    listed = [m for m in mutants if census._allowed(m, allow)]
    assert len(listed) == 1
    other = next(m for m in mutants if m not in listed
                 and [n.line for n in mutants].count(m.line) == 1)
    for lines, status in (({listed[0].line}, 0),
                          ({listed[0].line, other.line}, 1)):
        monkeypatch.setattr(census, "run_suite", fake_runner(
            lambda line: (0, []) if line in lines
            else (1, [f"tests/test_x.py::t{line}"])))
        assert census.main([str(TARGET)]) == status
        doc = json.loads(capsys.readouterr().out)
        assert doc["survivors"] == [other.id] * status


def test_failing_baseline_refused():
    with pytest.raises(RuntimeError, match="unmutated copy"):
        census.census([TARGET], lambda copy, timeout: (
            1, ["tests/test_x.py::t"]))
