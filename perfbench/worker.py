"""One closed-loop client: a fresh process that issues a workload's commands.

    python3 perfbench/worker.py plain --workload W --input CSV --out DIR --seed N
    python3 perfbench/worker.py trace --workload W --input CSV --out DIR --seed N --reference DIR

``plain`` runs the commands through ``gobe.cli.main`` with nothing traced
and prints one JSON line: wall and CPU time of the command sequence, the
process's peak resident memory, exit codes, and the OS thread count after a
GEMM.
``trace`` replays the same commands through ``replay.Replay`` and prints the
per-layer values; ``--reference`` is the output of a plain pass, whose
reports the replay writes again. The parent sets the BLAS thread variables.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import time
from pathlib import Path

import numpy as np

import workloads


def proc_status(field: str) -> int:
    status = Path("/proc/self/status").read_text(encoding="utf-8")
    return int(re.search(rf"^{field}:\s+(\d+)", status, re.M).group(1))


def threads_after_gemm() -> int:
    a = np.random.default_rng(0).standard_normal((512, 512))
    float((a @ a).sum())
    return proc_status("Threads")


def plain(argv_list: list[list[str]]) -> dict:
    from gobe import cli

    threads = threads_after_gemm()
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    codes = [cli.main(argv) for argv in argv_list]
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    # VmHWM, not ru_maxrss: Linux carries the parent's peak into ru_maxrss across fork and exec
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": proc_status("VmHWM") / 1024.0,
            "codes": codes, "threads_after_gemm": threads}


def trace(workload: str, argv_list: list[list[str]], out: Path, reference: Path) -> dict:
    from replay import Replay

    replay = Replay(workload, out, reference)
    for argv in argv_list:
        replay.run(argv)
    values, not_applicable = replay.metrics()
    (out / "spans.json").write_text(json.dumps(replay.spans(), indent=1) + "\n", encoding="utf-8")
    return {"values": values, "not_applicable": not_applicable}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("plain", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--reference", type=Path)
    args = parser.parse_args()
    spec = workloads.workload(args.workload)
    argv_list = workloads.commands(spec, args.input, args.out, args.seed)
    if args.mode == "plain":
        result = plain(argv_list)
    else:
        result = trace(args.workload, argv_list, args.out, args.reference)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
