"""Self-checks of the benchmark itself.

    python3 bench/selftest.py [--workload NAME ...] [--seed N]

* Two traced passes with the same seed give identical per-layer counts
  (call counts, term pairs, peak terms, nnz, shares).
* The session request list is a function of the seed: the same seed gives
  the same list and another seed a different one.
* Every captured session output passes the closed-form checks, so the
  checks and expected.json agree.

Prints one line per check and exits 1 if any fails.
"""

import argparse
import sys
import time

from layers import COUNT_METRICS
from run import _spawn
import workloads


def repeat_counts(workload: str, seed: int) -> list:
    args = argparse.Namespace(workload=workload, seed=seed)
    runs = []
    for _ in range(2):
        report, problem = _spawn(args, time.perf_counter() + 600,
                                 ["--trace"])
        if report is None:
            return [f"{workload}: {problem}"]
        runs.append({name: report["layers"][name] for name in COUNT_METRICS})
    first, second = runs
    return [f"{workload}: {name} {first[name]} then {second[name]}"
            for name in COUNT_METRICS if first[name] != second[name]]


def seed_changes_session(seed: int) -> list:
    same = workloads.session_argvs(seed) == workloads.session_argvs(seed)
    other = workloads.session_argvs(seed) != workloads.session_argvs(seed + 1)
    return [] if same and other else ["session list does not follow the seed"]


def catalog_checks() -> list:
    expected = workloads.load_expected()
    problems = []
    for argv in workloads.catalog():
        want = expected["session"][workloads.request_key(argv)]
        problems += workloads.check_request(
            argv, want["exit"], want["stdout"], want["stderr"], expected)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    checks = [("session list follows the seed",
               seed_changes_session(args.seed)),
              ("captured outputs pass the closed forms", catalog_checks())]
    for workload in args.workload or workloads.WORKLOADS:
        checks.append((f"{workload}: traced counts repeat",
                       repeat_counts(workload, args.seed)))
    bad = 0
    for title, problems in checks:
        print(f"[{'fail' if problems else 'pass'}] {title}")
        for text in problems[:10]:
            print(f"    {text}")
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
