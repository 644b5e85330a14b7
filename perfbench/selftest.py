#!/usr/bin/env python3
"""Self-test of the benchmark at small scale. Run from the repository root:

    python3 perfbench/selftest.py

Each workload, untraced and traced, must pass its correctness gate and
print exactly the metrics BENCHMARK.json declares, with their units. A
fleet run whose cleaner returns the dirty input must be reported as
failed, which shows the gate catches a wrong repair.
"""
import json
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--small", "1", *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    return cond


def main():
    ok = True
    for w in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w["name"], trace)
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            ok &= check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                        f"{w['name']} trace={trace}: correct, {r['attempted']} checked, {r['failed']} failed")
            ok &= check(got == want, f"{w['name']} trace={trace}: emits every {kind} metric with its unit")
    r = run("fleet", 0, "--wrong-cleaner", "1")
    ok &= check(not r["correct"] and r["failed"] > 0,
                f"fleet with a cleaner that returns the dirty input: {r['failed']} of {r['attempted']} failed")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
