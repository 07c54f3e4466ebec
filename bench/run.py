"""Benchmark of the gemkit CLI; standard library only.

    python3 bench/run.py --workload genus-census --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's command list for about --seconds,
each round in a fresh worker process (bench/worker.py), so that no timed
command is answered from a module cache an earlier round filled.
With --trace 0 it reports the end-to-end metrics, each the median over the
rounds.  With --trace 1 every untraced round is followed by a traced round
on the same inputs, and it reports the per-layer metrics of the traced
rounds plus trace.overhead_s, the traced minus the untraced wall time.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A fuller record goes to bench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Typical length of one round on a 2-core machine, in seconds.  A run is
# round(--seconds / this) whole rounds, so every run of a workload at one
# --seconds attempts the same commands, however fast the machine is today.
ROUND_SECONDS = {"genus-census": 15, "iso-canon": 15, "moves-io": 7.5}
WORKLOADS = tuple(ROUND_SECONDS)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("focus_s", "s"), ("other_s", "s"),
              ("peak_rss_mb", "MB"))
DEADLINE_S = 170  # a run must exit within 180 s


def run_round(workload, seed, round_no, traced, workdir, deadline):
    """Start one worker, wait for it, and return its report."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(round_no),
         "1" if traced else "0", repr(t0), str(workdir)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"round {round_no} of {workload} passed the {DEADLINE_S} s limit")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"round {round_no} of {workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gemkit" / "cli.py").is_file():
        raise SystemExit(f"gemkit sources not found under {ROOT / 'src'}")

    deadline = time.monotonic() + DEADLINE_S
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    if args.trace:
        rounds = max(1, rounds // 2)  # each round runs twice, untraced and traced
    plain, traced = [], []
    try:
        for round_no in range(rounds):
            plain.append(run_round(args.workload, args.seed, round_no, False, workdir, deadline))
            if args.trace:
                traced.append(run_round(args.workload, args.seed, round_no, True, workdir, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reports = plain + traced
    errors = [e for rep in reports for e in rep["errors"]]
    if args.trace:
        overhead = (statistics.median(rep["wall_s"] for rep in traced)
                    - statistics.median(rep["wall_s"] for rep in plain))
        metrics = {name: {"value": overhead if name == "trace.overhead_s" else
                          statistics.median(rep["layers"][name] for rep in traced),
                          "unit": unit}
                   for name, unit in METRICS}
    else:
        metrics = {name: {"value": statistics.median(rep[name] for rep in plain), "unit": unit}
                   for name, unit in END_TO_END}
    result = {
        "correct": not errors,
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": sum(len(rep["failed"]) for rep in reports),
        "metrics": metrics,
    }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  python=sys.version.split()[0], errors=errors,
                  failures=sorted({f for rep in reports for f in rep["failed"]}),
                  rounds=plain, traced_rounds=traced)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in errors:
        print(f"wrong answer: {line}")
    for line in record["failures"]:
        print(f"failed: {line}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
