"""Mutation census: which tier-1 tests fail on each small mutant of ``src/``.

Run it from anywhere, naming the files to mutate::

    python tools/census.py src/ternsim/core.py src/ternsim/engine.py

Each mutant changes one token of one file:

- a comparison becomes its boundary twin: ``<`` and ``<=``, ``>`` and ``>=``,
  ``==`` and ``!=``;
- ``and`` becomes ``or``, and ``or`` becomes ``and``;
- an integer literal k becomes k + 1.

The census copies ``src/``, ``tests/``, ``tools/`` and ``pyproject.toml`` into
a temporary directory, writes each mutant there in turn and runs the whole
tier-1 suite on the copy, without ``-x``, with no bytecode written and with a
fixed hypothesis seed.  The repository itself is only read.  A mutant is
killed when a test or a test module fails, when pytest exits nonzero with no
failing id (an import error, say), or when the run takes longer than its
limit: ``TIMEOUT_FACTOR`` times the unmutated baseline run's wall time, and
never less than ``TIMEOUT_FLOOR`` seconds, so a mutant that makes the suite
hang is ended a few baseline runs in.  A survivor listed in
``census_allow.json`` beside this file is equivalent: the entry names the
file, the stripped source line and the mutation, and says why no test can
tell the mutant apart.  Any other survivor is reported, and the exit status
is 1.

The kill matrix goes to stdout as JSON: for each mutant, its verdict and the
sorted ids of the tests that failed on it.  Progress goes to stderr.
``--jobs`` runs that many copies side by side.
"""

import argparse
import concurrent.futures
import dataclasses
import io
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ALLOW = HERE / "census_allow.json"
COPIED = ("src", "tests", "tools", "pyproject.toml")
# A mutant run's limit in seconds: max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * the
# baseline run's wall time).  The factor leaves room for --jobs copies side
# by side, which run slower than the baseline does alone.
TIMEOUT_FACTOR = 5
TIMEOUT_FLOOR = 60
TWINS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "and": "or", "or": "and"}
# The pytest run loads this module as a plugin (``-p census``); the plugin
# appends the id of each failing test or module to the file this names.
FAILED_IDS = "CENSUS_FAILED_IDS"


@dataclasses.dataclass(frozen=True)
class Mutant:
    file: str           # relative to the repo root, with forward slashes
    line: int
    col: int            # 1-based
    old: str
    new: str
    code: str           # the stripped source line

    @property
    def mutation(self):
        return f"{self.old} -> {self.new}"

    @property
    def id(self):
        return f"{self.file}:{self.line}:{self.col} {self.mutation}"


def _bump(number):
    try:
        return str(int(number.replace("_", ""), 0) + 1)
    except ValueError:          # a float or imaginary literal
        return None


def mutants(file, text):
    """Every mutant of one file's source text, in source order."""
    out, lines = [], text.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.OP, tokenize.NAME) and tok.string in TWINS:
            new = TWINS[tok.string]
        elif tok.type == tokenize.NUMBER:
            new = _bump(tok.string)
        else:
            continue
        if new is not None:
            line, col = tok.start
            out.append(Mutant(file, line, col + 1, tok.string, new,
                              lines[line - 1].strip()))
    return out


def apply(m, text):
    lines = text.splitlines(keepends=True)
    line = lines[m.line - 1]
    assert line[m.col - 1:].startswith(m.old), m
    lines[m.line - 1] = line[:m.col - 1] + m.new + line[m.col - 1 + len(m.old):]
    return "".join(lines)


def run_suite(workdir, timeout):
    """Run tier-1 on one copy, for at most ``timeout`` seconds (None: no
    limit): (exit status, or None when the limit ended it; failed ids)."""
    ids_file = workdir / ".census-failed"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(workdir / "src"), str(HERE)]),
               **{FAILED_IDS: str(ids_file)})
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "census",
           "-p", "no:cacheprovider", "--continue-on-collection-errors",
           "--hypothesis-seed=0", f"--basetemp={workdir / '.census-tmp'}"]
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        status = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        status = None
    ids = set(ids_file.read_text().splitlines()) if ids_file.exists() else set()
    for junk in (ids_file, workdir / ".census-tmp", workdir / ".hypothesis"):
        if junk.is_dir():
            shutil.rmtree(junk)
        elif junk.exists():
            junk.unlink()
    return status, sorted(ids)


def pytest_runtest_logreport(report):
    if report.failed:
        _record(report.nodeid)


def pytest_collectreport(report):
    if report.failed:
        _record(report.nodeid)


def _record(nodeid):
    with open(os.environ[FAILED_IDS], "a") as f:
        f.write(nodeid + "\n")


def _allowed(m, allow):
    return any((e["file"], e["code"], e["mutation"]) ==
               (m.file, m.code, m.mutation) for e in allow)


def census(files, runner, jobs=1, allow=()):
    """The kill matrix of every mutant of ``files`` (paths under the root).

    ``runner(copy, timeout)`` runs tier-1 on a copy, as ``run_suite`` does.
    """
    files = [Path(f).resolve().relative_to(ROOT).as_posix() for f in files]
    sources = {f: (ROOT / f).read_text() for f in files}
    todo = [m for f in files for m in mutants(f, sources[f])]
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        dirs = [Path(tmp) / str(i) for i in range(jobs)]
        skip = shutil.ignore_patterns("__pycache__", ".*")
        for copy in dirs:
            copy.mkdir()
            for name in COPIED:
                if (ROOT / name).is_dir():
                    shutil.copytree(ROOT / name, copy / name, ignore=skip)
                else:
                    shutil.copy2(ROOT / name, copy / name)
        start = time.monotonic()
        status, failed = runner(dirs[0], None)
        if status != 0 or failed:
            raise RuntimeError(f"tier-1 fails on the unmutated copy: {failed}")
        limit = max(TIMEOUT_FLOOR,
                    TIMEOUT_FACTOR * (time.monotonic() - start))
        print(f"baseline run: limit {limit:.0f} s per mutant",
              file=sys.stderr, flush=True)
        copies = queue.Queue()
        for copy in dirs:
            copies.put(copy)

        def one(m):
            copy = copies.get()
            target = copy / m.file
            try:
                target.write_text(apply(m, sources[m.file]))
                status, failed = runner(copy, limit)
            finally:
                target.write_text(sources[m.file])
                copies.put(copy)
            killed = status != 0 or bool(failed)
            verdict = ("killed" if killed else
                       "equivalent" if _allowed(m, allow) else "survived")
            print(f"{m.id}: {verdict}", file=sys.stderr, flush=True)
            return {"id": m.id, "code": m.code, "verdict": verdict,
                    "exit": status, "killers": failed}

        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            rows = list(pool.map(one, todo))
    return {"files": files, "mutants": rows,
            "survivors": [r["id"] for r in rows if r["verdict"] == "survived"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="source files to mutate")
    parser.add_argument("--jobs", type=int, default=1,
                        help="copies run side by side (default 1)")
    args = parser.parse_args(argv)
    result = census(args.files, run_suite, jobs=args.jobs,
                    allow=json.loads(ALLOW.read_text()))
    json.dump(result, sys.stdout, indent=1)
    print()
    return 1 if result["survivors"] else 0


if __name__ == "__main__":
    sys.exit(main())
