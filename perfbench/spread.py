#!/usr/bin/env python3
"""Runs the benchmark once per seed on one workload and prints, for each
end-to-end metric, its median and its spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. Run it from the repository root:

    python3 perfbench/spread.py er100k-churn 1 2 3 4 5 [--seconds 20]
"""
import json
import statistics
import subprocess
import sys
import time


def main(argv):
    seconds = "20"
    if "--seconds" in argv:
        i = argv.index("--seconds")
        seconds = argv[i + 1]
        del argv[i:i + 2]
    workload, seeds = argv[0], argv[1:]
    values = {}
    for seed in seeds:
        t0 = time.monotonic()
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", workload, "--seed", seed,
             "--seconds", seconds, "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        lines = out.strip().splitlines()
        res = json.loads(lines[-1])
        rounds = next((l.split(None, 1)[1] for l in lines if l.startswith("solve_p50_ms.by_round")), "")
        print(f"seed {seed}: {time.monotonic() - t0:.0f}s correct={res['correct']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in sorted(res["metrics"].items()))
              + f" rounds_p50={rounds}",
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, xs in sorted(values.items()):
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        print(f"{k:20s} median={q2:.4f} spread={(q3 - q1) / abs(q2):.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
