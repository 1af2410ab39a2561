#!/usr/bin/env python3
"""Build the perfbench program from this checkout and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, the SUT's data and the per-run result files
all live under .bench_build/ in the checkout. Build output goes to standard
error; a failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
