"""One round of a workload, in a fresh process; run.py starts it.

    python3 bench/worker.py WORKLOAD SEED ROUND TRACE T0 WORKDIR

Builds and writes the round's inputs, then calls gemkit.cli.main(argv)
once per command, in order, in this one thread: a closed loop with one
client.  Only the calls are timed.  Answers are checked after the last
call.  Prints one JSON object with the round's figures as its last line.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb():
    """High-water resident set of this process (VmHWM), in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_command(cli, argv):
    """(seconds, exit code or exception, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv + ["--json"])
        except Exception as exc:  # a traceback the CLI should have mapped: a failed operation
            rc = exc
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue()


def main(argv):
    workload, seed, round_no, traced, t0, workdir = argv
    sys.path.insert(0, str(SRC))
    import workloads
    from gemkit import cli

    r = workloads.Round(workload, int(seed), int(round_no), workdir)
    commands, finish = workloads.WORKLOADS[workload](r)
    tracer = None
    if traced == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    gc.collect()

    results = []
    setup_s = time.monotonic() - float(t0)
    if tracer is not None:
        tracer.active = True
    wall_start = time.perf_counter()
    for cmd in commands:
        results.append(run_command(cli, cmd.argv))
    wall_s = time.perf_counter() - wall_start
    if tracer is not None:
        tracer.active = False
    rss = peak_rss_mb()

    failed = []
    errors = []
    for cmd, (seconds, rc, out, err) in zip(commands, results):
        if rc != cmd.expect_rc:
            what = f"{type(rc).__name__}: {rc}" if isinstance(rc, Exception) else f"exit {rc}"
            failed.append(f"{' '.join(cmd.argv)}: {what}")
            continue
        try:
            cmd.check(json.loads(out) if cmd.expect_rc == 0 else err)
        except Exception as exc:  # a wrong or malformed answer; report it, check the rest
            errors.append(f"{' '.join(cmd.argv)}: {type(exc).__name__}: {exc}")
    if finish is not None and not failed:
        try:
            finish()
        except Exception as exc:
            errors.append(f"after the last command: {type(exc).__name__}: {exc}")

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "focus_s": sum(res[0] for cmd, res in zip(commands, results) if cmd.focus),
        "other_s": sum(res[0] for cmd, res in zip(commands, results) if not cmd.focus),
        "peak_rss_mb": rss,
        "attempted": len(commands),
        "failed": failed,
        "errors": errors,
        "commands": [[" ".join(cmd.argv[:1] + [Path(a).name for a in cmd.argv[1:]]), res[0]]
                     for cmd, res in zip(commands, results)],
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["spans"] = len(tracer.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
