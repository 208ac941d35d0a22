"""One benchmark pass, in a fresh process started by run.py.

    python3 bench/worker.py --workload NAME --seed N --spawned T
        [--trace] [--setup-only] [--spans PATH]

``--spawned`` is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is system-wide, so the difference at the
end of ``import ribbonkit.cli`` is the set-up time.  The pass sends the
workload's requests through ``ribbonkit.cli.main`` with output captured,
times each one, then checks every output.  Times are sampled for machine
speed and normalised (speed.py); wall times are reported beside them.  The
last line of stdout is one JSON object with the measurements.  The worker
exits with code 3 and a message when ribbonkit does not import from this
checkout's ``src/``.
"""

import argparse
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import SpeedSampler

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# exit code of a worker that finds ribbonkit missing or outside src/
REFUSED = 3

# speed samples every 10 ms while importing, which takes a fraction of a
# second, and every 50 ms during the pass (about 2.5% of its time)
SETUP_INTERVAL_S = 0.01
PASS_INTERVAL_S = 0.05


def _refuse(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(REFUSED)


def _import_ribbonkit():
    sys.path.insert(0, str(SRC))
    try:
        import ribbonkit.cli
    except ImportError as exc:
        _refuse(f"cannot import ribbonkit from {SRC}: {exc}")
    import ribbonkit

    where = Path(ribbonkit.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        _refuse(f"ribbonkit resolves to {where}, outside {SRC}")
    return ribbonkit


def _send(main, argvs, sampler):
    """Run each argv through main.

    Returns (program seconds of the pass, per-request (wall start, wall end,
    program seconds), outputs).
    """
    clock = time.perf_counter
    real_out, real_err = sys.stdout, sys.stderr
    spans, outputs = [], []
    first = sampler.clock()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        h0 = sampler.in_handler
        t0 = clock()
        try:
            code = main(argv)
        except Exception:  # a crash is recorded and counted as a failure
            code = None
            err.write(traceback.format_exc())
        finally:
            t1 = clock()
            sys.stdout, sys.stderr = real_out, real_err
        spans.append((t0, t1, t1 - t0 - (sampler.in_handler - h0)))
        outputs.append((argv, code, out.getvalue(), err.getvalue()))
    return sampler.clock() - first, spans, outputs


def _check(workload, outputs):
    """(attempted, failed, problems) over all outputs of one pass."""
    expected = workloads.load_expected()
    attempted, failed, problems = 0, 0, []
    for argv, code, out, err in outputs:
        if workload == "session":
            n = 1
            found = workloads.check_request(argv, code, out, err, expected)
        else:
            n, found = workloads.check_verify(workload, code, out, err,
                                              expected)
        attempted += n
        failed += min(n, len(found))
        problems += found
    return attempted, failed, problems


def main() -> int:
    sampler = SpeedSampler(SETUP_INTERVAL_S)
    sampler.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    ribbonkit = _import_ribbonkit()
    ready = time.perf_counter()
    setup_wall = ready - args.spawned
    report = {
        "setup_s": sampler.normalise(args.spawned, ready,
                                     setup_wall - sampler.in_handler),
        "setup_wall_s": setup_wall,
        "ribbonkit": ribbonkit.__file__,
    }
    if args.setup_only:
        sampler.stop()
        print(json.dumps(report))
        return 0

    import numpy

    report["numpy"] = numpy.__version__
    argvs = workloads.argvs(args.workload, args.seed)
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer(clock=sampler.clock)
        layers.install(tracer)
    sampler.set_interval(PASS_INTERVAL_S)
    program_s, spans, outputs = _send(ribbonkit.cli.main, argvs, sampler)
    sampler.stop()
    if tracer is not None:
        tracer.uninstall()
    attempted, failed, problems = _check(args.workload, outputs)
    request_s = [sampler.normalise(t0, t1, s) for t0, t1, s in spans]

    if tracer is not None:
        values, totals = layers.metrics(
            tracer, sum(request_s) / sum(s for _, _, s in spans))
        # every span's self time, the glue in cli.main included, adds up to
        # the program time spent inside cli.main, which is the pass's
        # program time less the loop between requests
        report["accounting_ok"] = (
            abs(totals["self_total_s"] - program_s) <= 0.01 * program_s)
        report["layers"] = values
        report["totals"] = totals
        if args.spans:
            tracer.write(args.spans)

    report.update({
        "run_s": sum(request_s),
        "run_wall_s": spans[-1][1] - spans[0][0],
        "request_s": request_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
