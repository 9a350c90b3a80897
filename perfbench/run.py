#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/*.go).

Run from the repository root:

    python3 perfbench/run.py --workload sharded-1m --seed 1 --seconds 40 --trace 0

The Go caches, temporary files and the binary live under .bench_build/
in the checkout, so nothing is written outside it. All arguments go to
the benchmark binary and its exit code is returned. Without the
program's sources next to perfbench/ the build fails and no result is
printed.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    build = os.path.join(ROOT, ".bench_build", "perfbench")
    tmp = os.path.join(build, "tmp-go")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOTELEMETRY="off",
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
