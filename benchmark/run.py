"""End-to-end and per-layer benchmark of the heiswalk command line.

    python3 benchmark/run.py --workload {exact,sampled,growth} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout; heiswalk is imported from its
`src/`.  Every pass runs in a fresh interpreter (benchmark/worker.py), so
the package's lru_caches start cold as they do for each CLI user, and
writes its outputs and claim status file into its own directory under
benchmark/.runs/, which is removed afterwards.

--trace 0 runs untraced passes until --seconds is used up (at least
MIN_PASSES) and reports the end-to-end metrics of BENCHMARK.json as
medians over passes.  --trace 1 runs traced, untraced, traced and reports
the per-layer metrics: medians over the two traced passes, plus the
process figures of the untraced pass and the tracing overhead.  The two
traced passes must give the same work counts.  Spans of traced passes
stay in benchmark/.runs/spans-*.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give the provenance and
each pass.  Exit code 1 means no result: a pass crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0
LAYER_SELF_TIMES = ["cli.self_s", "tables.self_s", "fourier.self_s", "paths.self_s",
                    "reference.self_s", "rng.self_s", "heisenberg.self_s",
                    "percolation.self_s", "fitting.s"]


class BenchError(RuntimeError):
    pass


def _spawn(worker_args: list[str], deadline: float) -> dict:
    """Run one worker to completion; its stdout's last line is its report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the pass could start")
    env = dict(os.environ)
    env.pop("HEISWALK_TABLE_CAP", None)  # the workloads assume the built-in cap
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC), *worker_args],
            capture_output=True, text=True, timeout=remaining, env=env,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _pass(kind: str, workload: str, seed: int, workdir: Path, index: int,
          deadline: float) -> dict:
    passdir = workdir / f"pass{index}"
    passdir.mkdir()
    worker_args = ["--workload", workload, "--seed", str(seed), "--workdir", str(passdir)]
    if kind == "traced":
        worker_args += ["--spans", str(RUNS / f"spans-{workload}-{seed}-pass{index}.jsonl")]
    report = _spawn(worker_args, deadline)
    report["kind"] = kind
    return report


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "heiswalk").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _provenance(passes: list[dict]) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **passes[0]["versions"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _end_to_end(passes: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }


def _per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["kind"] == "traced"]
    plain = [p for p in passes if p["kind"] == "plain"]
    problems = []
    if traced[0]["counts"] != traced[1]["counts"]:
        problems.append(f"work counts differ between traced passes: "
                        f"{traced[0]['counts']} vs {traced[1]['counts']}")
    for p in traced:
        layers = p["layers"]
        attributed = sum(layers[k] for k in LAYER_SELF_TIMES)
        if abs(attributed - layers["trace.wall_s"]) > 1e-6 * layers["trace.wall_s"]:
            problems.append(f"layer self times sum to {attributed}, "
                            f"traced wall is {layers['trace.wall_s']}")
    metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    cpu_s = statistics.median(p["cpu_s"] for p in plain)
    metrics["process.cpu_s"] = cpu_s
    metrics["process.cpu_util"] = cpu_s / plain_wall
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
    return metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    try:
        _spawn(["--setup-only"], deadline)  # warm-up: byte-compiles, fills the page cache
        passes: list[dict] = []
        measure_start = time.monotonic()
        if trace:
            for kind in ("traced", "plain", "traced"):
                passes.append(_pass(kind, workload, seed, workdir, len(passes), deadline))
        else:
            longest = 0.0
            while (len(passes) < MIN_PASSES
                   or time.monotonic() - measure_start + longest <= seconds):
                t = time.monotonic()
                passes.append(_pass("plain", workload, seed, workdir, len(passes), deadline))
                longest = max(longest, time.monotonic() - t)
        setups = [p["setup_s"] for p in passes]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(["--setup-only"], deadline)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"provenance": _provenance(passes)}))
    for i, p in enumerate(passes):
        print(json.dumps({"pass": i, "kind": p["kind"], "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                          "setup_s": p["setup_s"], "peak_rss_mb": p["peak_rss_mb"],
                          "calls": p["calls"]}))
    attempted = sum(len(p["calls"]) for p in passes)
    problems = [f"{c['label']}: {c['error']}" for p in passes for c in p["calls"] if c["error"]]
    failed = len(problems)
    if trace:
        values, more = _per_layer(passes)
        problems += more
        declared = spec["per_layer"]
    else:
        values = _end_to_end(passes, setups, attempted, failed)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise BenchError(f"metrics differ from BENCHMARK.json: computed only "
                         f"{sorted(set(values) - set(names))}, declared only "
                         f"{sorted(set(names) - set(values))}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="heiswalk CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "heiswalk" / "cli.py").is_file():
        print(f"no heiswalk sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
