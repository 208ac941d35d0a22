"""ribbonkit benchmark.

    python3 bench/run.py --workload jw-p7|twists-p16|session|all --seed N
        --seconds S --trace 0|1

Each pass runs in a fresh worker process (worker.py), one at a time, with a
single thread; workloads.py says what each workload sends and why.  With
``--trace 0`` the run repeats passes for about S seconds and reports the
end-to-end metrics:

    run_s           median over passes of the time from the first request
                    to the last verdict
    setup_s         median time from process start to ``ribbonkit.cli``
                    imported, over every pass and three import-only starts
                    before each pass
    peak_rss_mb     median peak resident memory of a pass process
    request_p50_ms  median latency of one ``cli.main`` call, over all calls
    request_p90_ms  90th percentile of the same (in jw-p7 and twists-p16 a
                    call is the whole verify, so these follow the passes)

Times are normalised to a reference machine speed measured inside each
worker while it runs (speed.py), because the speed of a shared host drifts
by a factor of two over seconds to minutes.  The wall-clock medians are
printed beside them and kept in the record.

With ``--trace 1`` it runs one untraced pass and one traced pass (see
layers.py) and reports the per-layer metrics, ``trace.overhead_ratio``
being traced run_s over untraced run_s.  Every pass checks its outputs;
``fail_ratio`` is failed over attempted checks and requests.

Stdout ends with one JSON line: correct, attempted, failed, metrics (named
``<workload>.<metric>`` under ``--workload all``).  The full record, with
samples and provenance, goes to ``bench/out/``.  The run refuses, exiting 2
without a result, when ribbonkit does not import from this checkout's
``src/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
from layers import PER_LAYER  # noqa: E402
from worker import REFUSED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES_PER_PASS = 3
# a run must end within 180 s whatever --seconds says
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
}


class Refused(Exception):
    """The checkout cannot be measured; no result is printed."""


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RIBBONKIT_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, deadline: float, extra=()) -> tuple[dict | None, str]:
    """Run one worker; (report, problem text)."""
    spawned = time.perf_counter()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--spawned", repr(spawned), *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    if proc.returncode == REFUSED:
        raise Refused(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"worker exit {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}")
    return json.loads(lines[-1]), ""


def _quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _git() -> dict:
    # the checkout may not be a git repository; never let git search the
    # directories above it
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=30).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(report: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": report.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "ribbonkit": report.get("ribbonkit"),
        **_git(),
    }


def measure(args) -> dict:
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    setups, passes, problems = [], [], []
    lost = []  # workers that crashed or timed out, one failed attempt each

    def spawn(*extra):
        report, problem = _spawn(args, deadline, extra)
        if report is None:
            lost.append(problem)
        else:
            setups.append(report["setup_s"])
            problems.extend(report.get("problems", ()))
        return report

    def run_pass(*extra):
        report = spawn(*extra)
        if report is not None:
            passes.append(report)
        return report

    traced = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
        if run_pass() is not None:
            traced = run_pass("--trace", "--spans", str(spans))
    else:
        # one unmeasured start, so that set-up reads warm file caches as a
        # user's repeated commands do; then import-only starts before every
        # pass, spreading the set-up samples over the run
        _spawn(args, deadline, ["--setup-only"])
        walls = []
        while not lost:
            t0 = time.perf_counter()
            for _ in range(SETUP_PROBES_PER_PASS):
                spawn("--setup-only")
            if lost or run_pass() is None:
                break
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            # stop once another pass would end well past --seconds
            if elapsed + statistics.median(walls) > 1.1 * args.seconds:
                break

    plain = [r for r in passes if "layers" not in r]
    metrics, wall = {}, {}
    if args.trace and traced is not None:
        for name, unit in PER_LAYER:
            value = (traced["run_s"] / plain[0]["run_s"]
                     if name == "trace.overhead_ratio"
                     else traced["layers"][name])
            metrics[name] = {"value": value, "unit": unit}
    elif not args.trace and plain:
        requests_ms = [s * 1000 for r in plain for s in r["request_s"]]
        values = {
            "run_s": statistics.median(r["run_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "request_p50_ms": _quantile(requests_ms, 50),
            "request_p90_ms": _quantile(requests_ms, 90),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    if plain:
        wall["run_wall_s"] = statistics.median(r["run_wall_s"] for r in plain)
        wall["setup_wall_s"] = statistics.median(r["setup_wall_s"]
                                                 for r in plain)
    accounting_ok = traced is None or traced["accounting_ok"]
    if not accounting_ok:
        problems.append("tracer accounting: self times do not sum to run_s")
    return {
        "passes": passes,
        "setup_s": setups,
        "problems": lost + problems,
        "metrics": metrics,
        "wall": wall,
        "attempted": sum(r["attempted"] for r in passes) + len(lost) or 1,
        "failed": sum(r["failed"] for r in passes) + len(lost),
        "correct": not lost and bool(metrics) and accounting_ok and not any(
            r["failed"] for r in passes),
    }


def _summary(args, result: dict) -> list:
    fail_ratio = result["failed"] / result["attempted"]
    requests = sum(len(r["request_s"]) for r in result["passes"])
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(result['passes'])}  requests {requests}",
        f"  {'fail_ratio':<36} {fail_ratio:.6g} "
        f"({result['failed']}/{result['attempted']})",
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    for name, value in result["wall"].items():
        lines.append(f"  {name:<36} {value:.6g} s (wall clock, not gated)")
    lines += [f"  problem: {text}" for text in result["problems"][:10]]
    return lines


def _run_one(args) -> dict:
    """Measure one workload, write its record and print its summary."""
    result = measure(args)
    first = result["passes"][0] if result["passes"] else {}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(first),
        **result,
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path = OUT / name
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in _summary(args, result):
        print(line)
    print("provenance " + json.dumps(record["provenance"]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ribbonkit" / "__init__.py").is_file():
        print(f"error: no ribbonkit package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            results[name] = _run_one(one)
    except Refused as exc:
        print(exc, file=sys.stderr)
        return 2

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value
                   for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
