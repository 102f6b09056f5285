#!/usr/bin/env python3
"""Smoke check of the campaign benchmark at a tiny scale.

Run from the root of a checkout:

    python3 campaign_bench/smoke.py

For every workload in BENCHMARK.json it runs the benchmark twice with
the same seed and once traced, all with --tiny (HS_SCALE 20000 cells,
48-cell store campaign), and asserts that

  - the last line is the result object with exactly the keys correct,
    attempted, failed and metrics; correct is true and failed is 0;
  - the untraced result carries every end_to_end metric of
    BENCHMARK.json and the traced one every per_layer metric, each
    with its declared unit and nothing else;
  - every end-to-end metric the benchmark defines is printed by name
    with its unit on a "metric" line (n/a where a workload cannot
    report it);
  - two runs with the same seed, the traced run, and (policy_sweep)
    a --jobs 1 run all print the same result digest.

Exits 0 and prints "smoke: ok" when every check holds.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "7"

# Printed by every workload; the ones a workload cannot measure say n/a.
PRINTED = {
    "setup_s": "s", "cells_per_s": "1/s", "sim_mcps": "Mcycles/s",
    "first_result_s": "s", "cell_s_p50": "s", "cell_s_p90": "s",
    "warm_cells_per_s": "1/s", "peak_rss_mb": "MB", "failed_frac": "frac",
    "paper_err_duty": "frac", "paper_err_fig5_v2": "frac",
}

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s exited %d" % (cmd, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    digest = None
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = m.group(3)
        if line.startswith("digest "):
            digest = line.split()[1]
    return result, printed, digest


def check_result(result, declared, where):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        "%s: result keys %s" % (where, sorted(result))
    assert result["correct"] is True, "%s: not correct" % where
    assert result["failed"] == 0, "%s: %d failed" % (where, result["failed"])
    assert result["attempted"] >= 1, "%s: nothing attempted" % where
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, "%s: metrics %s, want %s" % (where, got, want)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first, printed, digest = run(name, 0)
        check_result(first, bench["end_to_end"], name)
        for metric, unit in PRINTED.items():
            assert printed.get(metric) == unit, \
                "%s: metric %s printed with unit %s, want %s" % (
                    name, metric, printed.get(metric), unit)
        again, _, digest2 = run(name, 0)
        check_result(again, bench["end_to_end"], name + " (rerun)")
        assert digest and digest == digest2, \
            "%s: digest %s then %s" % (name, digest, digest2)
        traced, _, digest3 = run(name, 1)
        check_result(traced, bench["per_layer"], name + " (traced)")
        assert digest3 == digest, \
            "%s: traced digest %s, untraced %s" % (name, digest3, digest)
        if name == "policy_sweep":
            _, _, digest4 = run(name, 0, "--jobs", "1")
            assert digest4 == digest, \
                "%s: --jobs 1 digest %s, nproc %s" % (name, digest4, digest)
        print("smoke: %s ok (digest %s)" % (name, digest))
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
