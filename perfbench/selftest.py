#!/usr/bin/env python3
"""The benchmark's own self-test. Run from the repository root:

    python3 perfbench/selftest.py

It builds through perfbench/run.py and checks that:
  1. a tiny-size run of each workload prints every metric BENCHMARK.json names,
     with its unit, both untraced (end-to-end) and traced (per-layer), and
     passes the correctness gate;
  2. corrupting one expected digest raises failed_ratio above 0;
  3. two seeds give different inputs (the serve request stream included) but
     the same metric names.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.getcwd()
TARGET = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
# A metric line: two-space indent, name, value, unit.
METRIC_LINE = re.compile(r"^  [a-z][\w.]*\s+-?[\d.]+ \S+")


def run(*args):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=ROOT
    )
    if out.returncode != 0:
        sys.exit(f"selftest: run.py {' '.join(args)} exited {out.returncode}\n{out.stderr[-2000:]}")
    return out.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def tiny(workload, seed, trace, *extra):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--size", "tiny", *extra)


def check(cond, message):
    if not cond:
        sys.exit(f"selftest: FAILED: {message}")
    print(f"selftest: ok: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    groups = {0: bench["end_to_end"], 1: bench["per_layer"]}

    names, printed = {}, {}
    for w in workloads:
        for trace, metrics in groups.items():
            stdout = tiny(w, 1, trace)
            r = result(stdout)
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  f"{w} trace={trace}: correctness gate passes ({r['attempted']} checked)")
            lines = stdout.splitlines()
            for m in metrics:
                got = r["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{w} trace={trace}: {m['name']} reported in {m['unit']}")
                check(any(l.split()[:1] == [m["name"]] and f" {m['unit']} " in l for l in lines),
                      f"{w} trace={trace}: {m['name']} printed with its unit")
            names[(w, trace)] = sorted(r["metrics"])
            printed[(w, trace)] = {l.split()[0] for l in lines if METRIC_LINE.match(l)}
    for trace in groups:
        every = set.union(*(printed[(w, trace)] for w in workloads))
        for w in workloads:
            check(printed[(w, trace)] == every,
                  f"{w} trace={trace}: prints all {len(every)} metric names, printed-only ones included")
    check({"request_p99_ms", "failed_ratio"} <= printed[(workloads[0], 0)],
          "request_p99_ms and failed_ratio are printed")

    # A corrupted digest must fail the gate.
    digests = os.path.join(ROOT, "perfbench", "digests.txt")
    corrupt = os.path.join(ROOT, TARGET, "perfbench", "digests-corrupt.txt")
    os.makedirs(os.path.dirname(corrupt), exist_ok=True)
    with open(digests) as f:
        lines = f.read().splitlines()
    # The variant of the gnp_sync spec the seed-1 run used, from its output.
    used = next(l.split()[3] for l in tiny("static_pushpull", 1, 0).splitlines()
                if l.split()[:2] == ["spec", "gnp_sync"])
    target = ["static_pushpull", "tiny", "gnp_sync", used]
    hits = 0
    for i, line in enumerate(lines):
        fields = line.split()
        if not line.startswith("#") and fields[2:] == target:
            fields[1] = "%016x" % (int(fields[1], 16) ^ 1)
            lines[i] = " ".join(fields)
            hits += 1
    check(hits == 1, f"exactly one digest corrupted ({' '.join(target)})")
    with open(corrupt, "w") as f:
        f.write("\n".join(lines) + "\n")
    r = result(tiny("static_pushpull", 1, 0, "--digests", corrupt))
    check(r["failed"] > 0 and not r["correct"],
          f"corrupted digests raise failed_ratio to {r['failed'] / r['attempted']:.3f}")

    # Another seed: other inputs, same metric names.
    for w in workloads:
        a = json.loads(run("--describe", "--workload", w, "--seed", "1", "--size", "tiny").splitlines()[-1])
        b = json.loads(run("--describe", "--workload", w, "--seed", "2", "--size", "tiny").splitlines()[-1])
        check(a["digest"] != b["digest"], f"{w}: seeds 1 and 2 generate different inputs")
        r = result(tiny(w, 2, 0))
        check(sorted(r["metrics"]) == names[(w, 0)], f"{w}: seed 2 reports the same metric names")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
