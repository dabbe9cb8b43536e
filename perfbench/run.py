#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to dune's `_build`
directory inside the checkout, and the benchmark's last line of standard
output is its JSON result (see perfbench/README.md).  Build output goes to
standard error.  The simulator's planes that environment variables can turn
on (faults, crashes, drift, ...) are turned off by clearing those variables,
so every run simulates exactly what its seed says.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRAYBOX_")}
    # keep the build inside the checkout: no shared dune cache, and the
    # compilers' temporary files under .perfbench/
    env["DUNE_CACHE"] = "disabled"
    tmp = os.path.join(root, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/main.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
