"""Run one workload of the ranet benchmark and print its result.

    python3 perfbench/run.py --workload train-sparse64 --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the program in ``src/`` of the checkout it
sits in.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md in this directory).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON report with the machine facts, the calibration kernel's time at
the start and end of the run, the metrics under the workload's own names,
``error_rate`` and the first failures.

Exit codes: 0 a result was printed, 1 set-up failed, 2 the program in
``src/`` cannot be imported, 3 the machine is not in the required state.
"""

import time

_T_START = time.perf_counter()  # set-up time is counted from here

import argparse
import contextlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5  # set-up is repeated and its median reported
WORKLOADS = ("train-sparse64", "train-dense128", "infer256")
MAX_FAILURES_SHOWN = 5
# The gated end-to-end metrics, named for every workload alike: an operation
# is one optimizer step or one predict call, an item a sample or an image, and
# count_error is the training loss or the count MAE (both in heads).
END_TO_END = {
    "op_ms_p50": "ms",
    "items_per_s": "1/s",
    "count_error": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``ranet`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ranet

    where = Path(ranet.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"ranet was imported from {where}, not from {src}")


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }), flush=True)


def named_metrics(names: dict, summary: dict, values: dict) -> dict:
    """The end-to-end metrics under the names a reader of this workload expects."""
    out = {f"{names['op_ms']}_{k}": (v, "ms") for k, v in summary.items() if k != "n"}
    for name, unit in END_TO_END.items():
        if name != "op_ms_p50":
            out[names.get(name, name)] = (values[name], unit)
    out["error_rate"] = (values["error_rate"], "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import machine

    machine.pin_blas_threads()
    import numpy as np

    try:
        blas_threads = machine.check_blas_pin(np)
    except machine.MachineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    import layers
    import measure
    import spans
    import workloads

    import_s = time.perf_counter() - _T_START
    prims = layers.primitives()
    setup_tracer = spans.Tracer(layers.setup_targets()) if args.trace else None
    op_tracer = spans.Tracer(layers.op_targets(prims)) if args.trace else None

    # Set-up, repeated; the median repetition stands for one set-up.
    rep_s, digests, session = [], set(), None
    for _ in range(SETUP_REPS):
        session = None  # free the previous repetition's inputs first
        t0 = time.perf_counter()
        try:
            with setup_tracer or contextlib.nullcontext():
                session = workloads.SETUPS[args.workload](args.seed)
        except Exception:
            traceback.print_exc()
            emit_result(False, 1, 1, {})
            return 1
        rep_s.append(time.perf_counter() - t0)
        digests.add(session.inputs_digest)
    setup_s = import_s + statistics.median(rep_s)

    # Closed loop, one caller.  A traced run alternates traced and untraced
    # operations, so the tracing overhead is measured on the same inputs.
    tally = measure.Tally()
    op_ms = {False: [], True: []}
    calib_start = machine.calibrate(np)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or tally.attempted < session.pool_ops:
        i = tally.attempt()
        traced = op_tracer is not None and i % 2 == 1
        out = None
        with op_tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter_ns()
            try:
                out = session.op(i)
            except Exception as exc:  # a failed operation is counted, the run goes on
                if not tally.failures:
                    traceback.print_exc()
                tally.fail(i, f"{type(exc).__name__}: {exc}")
            op_ms[traced].append((time.perf_counter_ns() - t0) / 1e6)
        if out is not None:
            reason = session.accept(i, out)
            if reason:
                tally.fail(i, reason)
    check_facts = session.finish(tally)
    calib_end = machine.calibrate(np)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = op_ms[False]
    summary = measure.timing_summary(untraced)
    items_per_s = session.items_per_op * len(untraced) / (sum(untraced) / 1e3)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.facts(np, blas_threads),
        "calibration_ms": {"start": calib_start, "end": calib_end},
        "operations": {"untraced": len(untraced), "traced": len(op_ms[True]),
                       "pool": session.pool_ops},
        "setup_reps_s": rep_s,
        "import_s": import_s,
        "inputs_digest": sorted(digests),
        "checks": check_facts,
        "failures": dict(list(tally.failures.items())[:MAX_FAILURES_SHOWN]),
        "error_rate": tally.error_rate,
    }
    correct = tally.failed == 0 and len(digests) == 1 and bool(np.isfinite(session.quality()))
    if args.trace:
        metrics = layers.per_layer(
            spans.totals(op_tracer.spans), len(op_ms[True]),
            spans.totals(setup_tracer.spans), SETUP_REPS,
            prims, op_ms[True], untraced,
        )
        gated = {name: (metrics[name], layers.PER_LAYER[name]) for name in layers.PER_LAYER}
    else:
        values = {
            "op_ms_p50": summary["p50"],
            "items_per_s": items_per_s,
            "count_error": session.quality(),
            "peak_rss_mb": rss_mb,
            "setup_s": setup_s,
            "error_rate": tally.error_rate,
        }
        gated = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        report["metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in named_metrics(session.names, summary, values).items()
        }
    print(json.dumps({"report": report}), flush=True)
    emit_result(correct, tally.attempted, tally.failed, gated)
    return 0


if __name__ == "__main__":
    sys.exit(main())
