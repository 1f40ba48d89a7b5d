"""Self-check of the benchmark: wrong answers must raise the error rate.

For each workload it runs the prologue and the first round twice.  In the
clean pass every op must pass its check.  In the second pass the result of
the last op of each kind is made wrong before its check (``Op.tamper``);
each of those must fail and every other op must still pass, so
failed/attempted rises.  For ``orbit`` it also corrupts one
final slice handed to the sympy reference and expects that check to fail.

Usage (from the repository root):

    python3 perfbench/selfcheck.py [--seed 1]

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run
from speed import SpeedProbe


def check_sympy_reference(orbit) -> list:
    """The deferred sympy check passes the slice it got and fails a changed one."""
    if not orbit.deferred:
        return ["orbit: no slice was handed to the sympy reference"]
    m, vec, steps, p, (plus, minus) = orbit.deferred[0]
    if orbit.deferred_failures():
        return ["orbit: the sympy reference rejected a right slice"]
    wrong = dict(plus or minus)
    cell = next(iter(wrong))
    wrong[cell] = wrong[cell] % (p - 1) + 1 if p > 2 else 0
    wrong = {x: c for x, c in wrong.items() if c}
    orbit.deferred.append((m, vec, steps, p, (wrong, minus) if plus else (plus, wrong)))
    if orbit.deferred_failures() != 1:
        return ["orbit: the sympy reference accepted a wrong slice"]
    return []


def check_workload(cls, seed, cqca, workdir) -> list:
    problems = []
    rates = []
    probe = SpeedProbe()
    for tampered in (False, True):
        workload = cls(seed, cqca, workdir)
        tally = run.Tally()
        ops = workload.prologue() + workload.build_round(0)
        # The last op of each kind: in orbit the second of a pair, so its
        # partner's check does not depend on it.
        last = {op.kind: i for i, op in enumerate(ops)}
        for i, op in enumerate(ops):
            wrong = tampered and last[op.kind] == i
            ok = run.run_op(op, tally, probe, tamper=wrong)
            if ok == wrong:
                state = "accepted a wrong" if wrong else "rejected a right"
                problems.append(f"{cls.name}: {state} answer from op {i} ({op.kind})")
        if cls.name == "orbit" and not tampered:
            problems += check_sympy_reference(workload)
        tally.failed += workload.deferred_failures()
        rates.append(tally.failed / tally.attempted)
    if not rates[1] > rates[0]:
        problems.append(f"{cls.name}: error rate did not rise ({rates[0]:.3f} -> {rates[1]:.3f})")
    print(f"{cls.name}: error rate {rates[0]:.3f} clean, {rates[1]:.3f} with wrong answers")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-check of the cqca benchmark")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    cqca = run.import_cqca()
    import workloads

    workdir = os.path.join(run.OUT, f"selfcheck-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems = []
    try:
        for cls in workloads.WORKLOADS.values():
            problems += check_workload(cls, args.seed, cqca, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
