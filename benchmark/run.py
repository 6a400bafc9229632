#!/usr/bin/env python3
"""Runs one workload of the ccdem benchmark.

    python3 benchmark/run.py --workload <paper_sweep|fleet_campaign|idle_day>
                             --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` builds and runs the end-to-end runner (``benchmark/e2e``);
``--trace 1`` builds and runs the traced run (``benchmark/traced``), a
separate package. Both are built from source with cargo in release mode
(into ``$CARGO_TARGET_DIR`` when set). The runner's output passes through
unchanged; its last line is the JSON result. The exit code is the
runner's, or cargo's when the build fails. A termination signal sent to
this script is passed on to the runner, which is waited for before the
script exits.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGES = {"0": "e2e", "1": "traced"}


def trace_flag(argv):
    """The value following ``--trace``, ``"0"`` when absent."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value
    return "0"


def main(argv):
    package = PACKAGES.get(trace_flag(argv))
    if package is None:
        print("run.py: --trace takes 0 or 1", file=sys.stderr)
        return 2
    manifest = os.path.join(HERE, package, "Cargo.toml")
    command = ["cargo", "run", "--release", "--quiet", "--offline",
               "--manifest-path", manifest, "--"] + argv
    try:
        child = subprocess.Popen(command)
    except OSError as error:
        print(f"run.py: cannot run cargo: {error}", file=sys.stderr)
        return 1
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, lambda signum, _frame: child.send_signal(signum))
    return child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
