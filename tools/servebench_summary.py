#!/usr/bin/env python3
"""Write BENCH_serve.json: servebench medians over six seeds per workload.

    python3 tools/servebench_summary.py

For seeds 1-6 the script serves every workload BENCHMARK.json
declares, each for its run_seconds with tracing off, from the
repository root:

    python3 servebench/run.py --workload W --seed S --seconds T --trace 0

The workload order flips from one seed to the next, so host drift over
the run lands on both workloads alike. At 42 s the 12 runs take about
11 minutes; do not run builds or other timing work alongside.

BENCH_serve.json holds, per workload, every end-to-end metric's median
over the six seeds and its [min, max] range, which for six samples is
the distribution-free 96.9% confidence interval of the median
(1 - 2 * 0.5^6). Beside them it keeps each seed's `token digest:` and
`untraced counts:` lines verbatim, so a change that moves any output
bit or exact work count shows in the diff. The script exits nonzero,
writing nothing, unless every run's last line reports "correct": true.
"""

import json
import os
import re
import statistics
import subprocess
import sys

SEEDS = range(1, 7)
OUT = "BENCH_serve.json"
VERBATIM = ("token digest:", "untraced counts:")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def sig6(v):
    return float("%.6g" % v)


def dumps(doc):
    """JSON at indent 2, with every list of numbers on one line."""
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[%s]" % ", ".join(
                      v.strip() for v in m.group(1).split(",")),
                  json.dumps(doc, indent=2))


def serve(workload, seed, seconds):
    cmd = [sys.executable, "servebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.exit("servebench_summary: %s seed %d was not correct "
                 "(exit %d)" % (workload, seed, proc.returncode))
    verbatim = {p: next((l for l in lines if l.startswith(p)), None)
                for p in VERBATIM}
    missing = [p for p, line in verbatim.items() if line is None]
    if missing:
        sys.exit("servebench_summary: %s seed %d printed no %s line"
                 % (workload, seed, ", ".join(missing)))
    return result["metrics"], verbatim


def main():
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metric_names = [m["name"] for m in bench["end_to_end"]]

    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        order = workloads if seed % 2 else workloads[::-1]
        for w in order:
            metrics, verbatim = serve(w, seed, seconds)
            runs[w].append((seed, metrics, verbatim))
            print("seed %d %s: correct, tpot_p50_ms %.3f, "
                  "throughput_tok_s %.2f" % (
                      seed, w, metrics["tpot_p50_ms"]["value"],
                      metrics["throughput_tok_s"]["value"]),
                  file=sys.stderr)

    summary = {}
    for w in workloads:
        metrics = {}
        for name in metric_names:
            values = [m[name]["value"] for _, m, _ in runs[w]]
            metrics[name] = {
                "unit": runs[w][0][1][name]["unit"],
                "median": sig6(statistics.median(values)),
                "ci_96_9": [sig6(min(values)), sig6(max(values))],
            }
        summary[w] = {
            "metrics": metrics,
            "seeds": [dict(seed=seed, token_digest=v[VERBATIM[0]],
                           untraced_counts=v[VERBATIM[1]])
                      for seed, _, v in runs[w]],
        }

    doc = {
        "bench": "servebench",
        "command": "python3 servebench/run.py --workload W --seed S "
                   "--seconds %d --trace 0" % seconds,
        "seeds": list(SEEDS),
        "interval": "ci_96_9 is [min, max] over the seeds: for 6 runs "
                    "the distribution-free 96.9% confidence interval "
                    "of the median",
        "cpu": cpu_model(),
        "hardware_threads": os.cpu_count(),
        "workloads": summary,
    }
    with open(OUT, "w") as f:
        f.write(dumps(doc) + "\n")
    print("wrote %s" % OUT, file=sys.stderr)


if __name__ == "__main__":
    main()
