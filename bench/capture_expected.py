"""Record the printed output of every benchmark request into expected.json.

    python3 bench/capture_expected.py

Run it only at a commit whose output is known to be right: the benchmark
then requires every later commit to print the same values (verify lines
compare without their elapsed times).  Requests that are not documented
usage errors must exit 0, and usage errors must exit 2.
"""

import json
import sys

import workloads
from speed import SpeedSampler
from worker import SRC, _send

sys.path.insert(0, str(SRC))
from ribbonkit.cli import main  # noqa: E402


def capture() -> dict:
    idle = SpeedSampler(0)  # never started: plain wall-clock timing
    verify = {}
    for name in workloads.VERIFY:
        argv = workloads.verify_argv(name, 0)
        _, _, [(_, code, out, err)] = _send(main, [argv], idle)
        if code != 0 or err:
            raise SystemExit(f"{name}: exit {code}: {err}")
        verify[workloads.request_key(argv)] = workloads.strip_elapsed(out)
    session = {}
    _, _, outputs = _send(main, workloads.catalog(), idle)
    for argv, code, out, err in outputs:
        if code != (2 if workloads.is_refusal(argv) else 0):
            raise SystemExit(f"{' '.join(argv)}: exit {code}: {err}")
        session[workloads.request_key(argv)] = {
            "exit": code, "stdout": out, "stderr": err}
    return {"verify": verify, "session": session}


if __name__ == "__main__":
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(capture(), fh, indent=0, sort_keys=True)
        fh.write("\n")
