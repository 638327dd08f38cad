#!/usr/bin/env python3
"""Self-check of the benchmark, at tiny size; takes under a minute.

    python3 perfbench/selfcheck.py

Asserts that every workload, with and without tracing, prints exactly the
metrics BENCHMARK.json names, each with its unit; that each verifier rejects
a planted wrong answer (a flipped verdict, a bijection that is not one,
swapped stage realizers); and that the benchmark refuses to run without the
package source beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run as R
import workloads as W


def check_metrics(spec: dict):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in R.WORKLOADS:
            cmd = [sys.executable, str(R.HERE / "run.py"), "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, (name, trace, proc.stdout[-2000:])
            assert result["failed"] == 0 and result["attempted"] >= 1, (name, trace, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, k, v)
            for share in R.SHARE_UNITS:
                assert f" {share} " in proc.stdout or share in result["metrics"], (name, share)
            print(f"ok  {name:<15} trace {trace}: {len(got)} metrics")


def check_planted():
    bdm = R.load_bdm()
    for name in R.WORKLOADS:
        wl = R.make_workload(name, bdm, tiny=True)
        try:
            wl.setup(1)
            _, _, answers, changed = W.timed_loop(wl, 0, passes=1)
            assert not changed and not wl.verify(answers), name
            planted = wl.plant(answers)
            rejected = wl.verify(planted)
            assert set(planted) <= set(rejected), (name, planted.keys(), rejected)
            print(f"ok  {name:<15} rejects a planted answer: {next(iter(rejected.values()))}")
        finally:
            shutil.rmtree(R.WORK, ignore_errors=True)


def check_refuses_without_source():
    """In a directory holding only BENCHMARK.json and perfbench, the run
    must exit non-zero without printing a result."""
    bare = R.WORK / "bare"
    try:
        shutil.copytree(R.HERE, bare / R.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(R.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{R.HERE.name}/run.py", "--workload", "decide",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
        print(f"ok  refuses to run without src: exit {proc.returncode}")
    finally:
        shutil.rmtree(R.WORK, ignore_errors=True)


def main():
    spec = json.loads((R.ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_planted()
    check_refuses_without_source()
    print("selfcheck passed")


if __name__ == "__main__":
    main()
