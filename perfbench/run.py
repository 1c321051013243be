#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first build compiles the whole
simulator), runs it with the given arguments and passes its output
through.  The last line of output is the result JSON; its metric names
and units must match BENCHMARK.json (end_to_end for --trace 0, per_layer
for --trace 1), and so must the annotations in perfbench/spec.json.
Exits non-zero, without a result line, when the checkout holds no
simulator to build.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
REQUIRED = ["dune-project", "lib", os.path.join("perfbench", "dune"), "BENCHMARK.json"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main(argv):
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not the root of a repository checkout (missing: %s)" % ", ".join(missing))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        fail("build failed")
    run = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, text=True, timeout=170)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        fail("benchmark exited with %d" % run.returncode, run.returncode)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join("perfbench", "spec.json")) as f:
        spec = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    section = "per_layer" if traced else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[section]}
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    documented = {name: m["unit"] for name, m in spec[section].items()}
    for what, names in (("printed", got), ("perfbench/spec.json", documented)):
        if names != expected:
            fail("%s %s metrics differ from BENCHMARK.json: %s" % (
                what, section, sorted(set(names.items()) ^ set(expected.items()))), 3)


if __name__ == "__main__":
    main(sys.argv[1:])
