"""Run the committed mutants of the source against the tests that must kill them.

    python tests/mutants/run.py [mutant id ...]

mutants.json, next to this file, lists the mutants.  Each one holds

    id      a unique name
    file    the mutated file, relative to the repository root (under src/)
    old     the exact text that the mutant replaces; it must occur once
    new     the replacement
    tests   the pytest node ids that must fail once the text is replaced
    why     one line: what the mutant breaks
    equivalent  (optional) why the mutant cannot change any result; its
            tests must then pass, since no test can tell it from the source

For each mutant the script copies src/ to a temporary directory, applies the
mutant there and runs its tests against the copy with -x -q -p no:cacheprovider.
A mutant is killed when the tests fail (or run past the time limit), survived
when they pass, and stale when its old text does not occur exactly once.  A
mutant with an `equivalent` reason is equivalent when its tests pass, and
refuted when they fail: then it is not equivalent, and its entry needs a
reason of the other kind.  The named tests first run once against an
unmutated copy, which must pass.  The script prints one line per mutant and a
summary line, and exits 1 on any survivor, stale or refuted entry; the working
tree is never changed.  It is not part of the Tier-1 suite because of its run
time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TIMEOUT_S = 300


def run_tests(src: str, tests: list) -> str:
    """'passed', 'failed' or 'timeout' of the tests run against the package in src."""
    # The ini option pythonpath would put the repository's src/ first; point it at the copy.
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(ids) -> int:
    with open(os.path.join(HERE, "mutants.json"), encoding="utf-8") as fh:
        mutants = json.load(fh)
    if ids:
        mutants = [m for m in mutants if m["id"] in ids]
    counts = dict.fromkeys(("killed", "survived", "stale", "equivalent", "refuted"), 0)
    with tempfile.TemporaryDirectory() as workdir:
        src = os.path.join(workdir, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src)
        baseline = run_tests(src, sorted({t for m in mutants for t in m["tests"]}))
        if baseline != "passed":
            print(f"baseline: the named tests {baseline} on the unmutated source", file=sys.stderr)
            return 2
        for m in mutants:
            path = os.path.join(workdir, m["file"])
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            start = time.perf_counter()
            if original.count(m["old"]) != 1:
                verdict = "stale"
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original.replace(m["old"], m["new"]))
                outcome = run_tests(src, m["tests"])
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
                if "equivalent" in m:
                    verdict = "equivalent" if outcome == "passed" else "refuted"
                else:
                    verdict = "survived" if outcome == "passed" else "killed"
                if outcome == "timeout":
                    verdict += f" (no result in {TIMEOUT_S} s)"
            counts[verdict.split()[0]] += 1
            why = m.get("equivalent", m["why"])
            print(f"{verdict:10} {m['id']}  ({time.perf_counter() - start:.1f} s)  {why}", flush=True)
    print(f"{len(mutants)} mutants: " + ", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["survived"] or counts["stale"] or counts["refuted"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
