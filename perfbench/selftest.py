#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

Runs every workload named in BENCHMARK.json at smoke size, untraced and
traced, with the command BENCHMARK.json gives, and checks that each result
line has exactly the keys the benchmark promises and exactly the metric
names and units BENCHMARK.json lists. Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys


def run(command, workload, trace):
    args = command + ["--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--smoke"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} trace={trace} printed nothing")
    return json.loads(lines[-1])


def check(result, expected, workload, trace, nonzero):
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}"
    assert result["correct"] is True, f"{where}: not correct"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted"
    assert isinstance(result["failed"], int) and result["failed"] >= 0, f"{where}: failed"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, f"{where}: metrics differ: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"
        if nonzero:
            assert m["value"] != 0, f"{where}: {name} is 0"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        check(run(bench["command"], name, 0), bench["end_to_end"], name, 0, nonzero=True)
        check(run(bench["command"], name, 1), bench["per_layer"], name, 1, nonzero=False)
        print(f"ok: {name}")
    print("self-test passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"self-test FAILED: {e}", file=sys.stderr)
        sys.exit(1)
