"""gobe benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload readout --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload; rewrites BENCHMARK.json

Run from anywhere inside a gobe checkout; the benchmark builds nothing and
imports gobe from ``src/``. It generates the workload's input CSV from the
seed, then:

* ``--trace 0`` runs the workload's command sequence through
  ``gobe.cli.main`` in a fresh process per pass until ``--seconds`` is used
  up, after one untimed warm-up pass, and times a cold start of the CLI
  (``setup_s``) before each pass, at least seven in all. Every metric is the
  median over the run.
* ``--trace 1`` runs two plain passes (their reports must match byte for
  byte) and one traced replay in a fresh process, and reports the
  per-layer metrics of ``perfbench/replay.py``.

Each run checks the first pass's outputs (``perfbench/checks.py``). Every
model estimate and every check is an operation: ``attempted`` counts them
and ``failed`` counts failed estimates and failed checks. BLAS and OpenMP
are pinned to one thread in every process. The last line of standard output
is the JSON result; the lines before it record the environment, the
workload's provenance and each metric by name and unit. Outputs, spans and
the input CSV stay under ``.perfbench/<workload>/`` in the checkout.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is imported anywhere in this process

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/gobe/cli.py", "src/gobe/schemas/report.schema.json", "tests/oracles.py")

RUN_SECONDS = 30
MIN_SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
END_TO_END = (
    # name, unit, bound (share of the parent's median it may worsen by)
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
)
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import gobe.cli; "
                 "print(time.perf_counter() - t)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a gobe checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # outputs and the command lines below use checkout-relative paths
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    names = workloads.workload_names()
    if args.workload == "all":
        write_spec(workloads.load_spec())
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
        print(json.dumps(results))
        return 0
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or 'all'")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import checks
    import workloads

    spec = workloads.workload(name)
    work = Path(".perfbench") / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_path = work / "input.csv"
    layout = workloads.write_input(spec, seed, input_path)
    emit({"workload": name, "seed": seed, "why": spec["why"], "generator": spec["generator"],
          "input": layout, "commands": workloads.commands(spec, input_path, work / "pass0", seed)})

    if trace:
        passes = [plain_pass(name, input_path, work / f"pass{i}", seed) for i in range(2)]
    else:
        # The first cold start fills the bytecode cache and the first pass warms the
        # file cache; neither is timed. Later cold starts are spread over the run.
        setup_sample()
        passes = [plain_pass(name, input_path, work / "pass0", seed)]
        setup = []
        started = time.perf_counter()
        while True:
            setup.append(setup_sample())
            passes.append(plain_pass(name, input_path, work / f"pass{len(passes)}", seed))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / (len(passes) - 1) > seconds:
                break
        setup += [setup_sample() for _ in range(MIN_SETUP_SAMPLES - len(setup))]
    emit({"env": environment(passes[0]["threads_after_gemm"])})

    argv0 = workloads.commands(spec, input_path, work / "pass0", seed)
    attempted = failed = 0
    for p in passes:
        a, f = operations(p, workloads.commands(spec, input_path, p["out"], seed))
        attempted += a
        failed += f
    commands_ok = all(code == 0 for p in passes for code in p["codes"])
    results = checks.run_checks(ROOT, input_path, argv0) if commands_ok else []
    for r in results:
        print(f"check {'ok  ' if r['ok'] else 'FAIL'} {r['name']} [{r['detail']}]", flush=True)
    attempted += len(results)
    failed += sum(not r["ok"] for r in results)
    correct = commands_ok and all(r["ok"] for r in results)

    if trace:
        metrics = traced_metrics(name, input_path, work, seed, passes, argv0, failed / attempted)
    else:
        timed = passes[1:]
        metrics = {"setup_s": statistics.median(setup)}
        metrics.update({k: statistics.median(p[k] for p in timed)
                        for k in ("wall_s", "cpu_s", "peak_rss_mb")})
        emit({"samples": {"setup_s": setup, **{k: [p[k] for p in timed]
                                                for k in ("wall_s", "cpu_s", "peak_rss_mb")}}})
    units = dict(metric_units(trace))
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}", flush=True)
    print(f"{name} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)",
          flush=True)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def traced_metrics(name, input_path, work, seed, passes, argv0, failed_frac) -> dict:
    """Per-layer values from a traced replay, plus the run-level entries."""
    from replay import PER_LAYER

    traced = worker("trace", name, input_path, work / "trace", seed, "--reference", str(work / "pass0"))
    values = traced["values"]
    reports = [Path(argv[argv.index("--out") + 1]) / "report.json" for argv in argv0]
    other = work / "pass1"
    values["report.byte_identical"] = int(all(
        r.read_bytes() == (other / r.relative_to(work / "pass0")).read_bytes() for r in reports))
    values["bench.trace_overhead_s"] = (values.pop("bench.traced_wall_s")
                                        - statistics.median(p["wall_s"] for p in passes))
    values["bench.failed_frac"] = failed_frac
    emit({"not_applicable": traced["not_applicable"]})
    return {key: values.get(key, 0) for key, _ in PER_LAYER}


def plain_pass(name: str, input_path: Path, out: Path, seed: int) -> dict:
    result = worker("plain", name, input_path, out, seed)
    result["out"] = out
    return result


def worker(mode: str, name: str, input_path: Path, out: Path, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", name,
           "--input", str(input_path), "--out", str(out), "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} worker for {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample() -> float:
    """Cold-start time of the CLI: a fresh interpreter importing gobe.cli."""
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=child_env(),
                          capture_output=True, text=True, check=True, timeout=WORKER_TIMEOUT_S)
    return float(proc.stdout.strip().splitlines()[-1])


def operations(p: dict, argv_list: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed) model estimates of one pass, read from its reports.

    A command that exits non-zero counts as one failed operation.
    """
    attempted = failed = 0
    for code, argv in zip(p["codes"], argv_list):
        if code != 0:
            attempted += 1
            failed += 1
            continue
        out = Path(argv[argv.index("--out") + 1])
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        n_failures = len(doc.get("failures", []))
        if doc["kind"] == "estimate":
            attempted += len(doc["estimates"]) + n_failures
            failed += n_failures
        elif doc["kind"] == "power":
            attempted += len(doc["recommendations"]) + n_failures
            failed += n_failures
        elif doc["kind"] == "aa":
            attempted += doc["s_splits"] * len(doc["models"])
            failed += doc["failure_count"]
        elif doc["kind"] == "stress":
            attempted += doc["mc_draws"] * len(doc["fold_counts"]) * len(doc["median_err"])
            failed += doc["failure_count"]
    return attempted, failed


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment(threads_after_gemm: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads_after_gemm": threads_after_gemm,
        "pinned": threads_after_gemm == 1,
    }


def metric_units(trace: int) -> list[tuple[str, str]]:
    if trace:
        from replay import PER_LAYER
        return PER_LAYER
    return [(name, unit) for name, unit, _ in END_TO_END]


def write_spec(spec: dict) -> None:
    """BENCHMARK.json from workloads.json and the metric lists above."""
    from replay import PER_LAYER

    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in spec["workloads"]],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "higher" if u == "bool" else "lower"}
                      for n, u in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def emit(doc: dict) -> None:
    print(json.dumps(doc, default=str), flush=True)


if __name__ == "__main__":
    sys.exit(main())
