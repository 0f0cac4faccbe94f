"""One benchmark pass in a fresh interpreter; prints one JSON object.

    python3 worker.py --src SRC --setup-only
    python3 worker.py --src SRC --workload NAME --seed N --workdir DIR [--spans FILE]

Set-up is timed from before `import heiswalk.cli` to after
`load_claims()`.  A pass then runs the workload's CLI calls through
`heiswalk.cli.main(argv)`, with every output and the claim status file
in the working directory, and checks the outputs afterwards.  With
`--spans` the pass is traced and its spans are written to that file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _invoke(main, argv: list[str]) -> tuple[int | None, str | None]:
    """Exit code of one CLI call and, if it raised, the reason."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv), None
    except SystemExit as exc:  # argparse rejects bad argv this way
        return (exc.code if isinstance(exc.code, int) else 2), f"SystemExit({exc.code!r})"
    except Exception as exc:  # a crashing call is recorded and the pass goes on
        traceback.print_exc(file=sys.stderr)
        return None, repr(exc)


def _blas_threads(numpy) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    import ctypes
    import glob

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workdir")
    parser.add_argument("--spans")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import heiswalk.cli as cli

    cli.load_claims()
    setup_s = time.perf_counter() - start
    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"heiswalk was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    from workloads import CALL_LABELS, WORKLOADS, check_output

    calls = WORKLOADS[args.workload]
    os.chdir(args.workdir)
    status_file = os.path.join(args.workdir, "status.json")
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracing.install(tracer)

    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.span("cli.workload", "cli") if tracer else contextlib.nullcontext() as root:
        for i, (label, argv) in enumerate(calls):
            out_path = os.path.join(args.workdir, f"{i:02d}-{label}.csv")
            full = argv + ["--seed", str(args.seed), "--out-path", out_path,
                           "--status-file", status_file]
            c0 = time.perf_counter()
            with tracer.span(f"cli.{label}", "cli") if tracer else contextlib.nullcontext():
                code, error = _invoke(cli.main, full)
            results.append({"label": label, "argv": argv, "exit_code": code, "error": error,
                            "seconds": time.perf_counter() - c0, "out_path": out_path})
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    for r in results:
        # 5 is a claim verdict of FAIL, a sampling outcome at some seeds (NOTES.md)
        if r["error"] is None and r["exit_code"] not in (0, 5):
            r["error"] = f"exit code {r['exit_code']}"
        if r["error"] is None:
            r["error"] = check_output(r["label"], r["argv"], r["out_path"])

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": [{k: r[k] for k in ("label", "exit_code", "error", "seconds")} for r in results],
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas_threads": _blas_threads(numpy)},
    }
    if tracer:
        report["layers"] = tracing.layer_metrics(tracer, root, CALL_LABELS)
        report["counts"] = {k: report["layers"][k] for k in tracing.REPEATED_COUNTS}
        tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
