"""The program's layers as a traced run sees them, and their per-layer metrics.

Layers are the ``ranet`` modules that do the work: ``autodiff`` (tape and
primitives), ``network``, ``region_aware``, ``bayes``, ``training`` and
``datagen``.  ``core``, ``evaluate`` and ``cli`` only do I/O, loop over
``predict`` or parse arguments, so none of them is timed.

Operation metrics are per timed operation (one optimizer step or one
``predict`` call); set-up metrics are per set-up.
"""

from __future__ import annotations

import inspect
import statistics

from ranet import autodiff, bayes, datagen, network, training

POINTWISE = frozenset({"add", "mul", "scale", "relu", "sigmoid", "softplus", "abs_val"})
OWN_METRIC = ("conv2d", "upsample_bilinear", "avgpool", "adaptive_avgpool")
NETWORK_SPANS = ("network.full_forward", "network.predict", "network.pass1", "network.pass2")

# name -> unit; every metric is better when lower.
PER_LAYER = {
    **{f"autodiff.{p}.{k}": u for p in OWN_METRIC for k, u in (("ms", "ms"), ("calls", "count"))},
    "autodiff.pointwise.ms": "ms",
    "autodiff.pointwise.calls": "count",
    "autodiff.other.ms": "ms",
    "autodiff.other.calls": "count",
    "autodiff.calls": "count",
    "autodiff.backward.ms": "ms",
    "autodiff.backward.calls": "count",
    "network.pass1.ms": "ms",
    "network.pass2.ms": "ms",
    "network.self.ms": "ms",
    "region_aware.ra_apply.ms": "ms",
    "bayes.bayes_loss.ms": "ms",
    "bayes.posteriors.ms": "ms",
    "bayes.posteriors.calls": "count",
    "training.step_self.ms": "ms",
    "datagen.gen_scene.ms": "ms",
    "training.load_checkpoint.ms": "ms",
    "trace.overhead": "ratio",
}


def primitives() -> list[str]:
    """Public functions defined in ``ranet.autodiff``, except the backward entry point."""
    return sorted(
        name for name, fn in inspect.getmembers(autodiff, inspect.isfunction)
        if fn.__module__ == autodiff.__name__ and not name.startswith("_") and name != "backward"
    )


def op_targets(prims: list[str]) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name), each patched where its caller looks it up."""
    return [(autodiff, p, f"autodiff.{p}") for p in prims] + [
        (autodiff.Tape, "backward", "autodiff.backward"),
        (network, "pass1", "network.pass1"),
        (network, "pass2", "network.pass2"),
        (network, "ra_apply", "region_aware.ra_apply"),          # imported by name
        (network, "bayes_loss", "bayes.bayes_loss"),              # imported by name
        (bayes, "posteriors_from_distances", "bayes.posteriors"),
        (training, "full_forward", "network.full_forward"),      # imported by name
        (training, "train_epoch", "training.train_epoch"),
        (network, "predict", "network.predict"),
    ]


def setup_targets() -> list[tuple[object, str, str]]:
    return [
        (datagen, "gen_scene", "datagen.gen_scene"),
        (training, "load_checkpoint", "training.load_checkpoint"),
    ]


def per_layer(op_totals: dict, n_ops: int, setup_totals: dict, n_setups: int,
              prims: list[str], traced_ms: list[float], untraced_ms: list[float]) -> dict:
    """Per-layer metrics from span totals (see ``spans.totals``)."""

    def per(totals, n, name, key):
        value = totals.get(name, {}).get(key, 0) / n
        return value / 1e6 if key.endswith("_ns") else value

    def op(name, key):
        return per(op_totals, n_ops, name, key)

    def prim_sum(names, key):
        return sum(op(f"autodiff.{p}", key) for p in names)

    pointwise = [p for p in prims if p in POINTWISE]
    other = [p for p in prims if p not in POINTWISE and p not in OWN_METRIC]
    m = {}
    for p in OWN_METRIC:
        m[f"autodiff.{p}.ms"] = op(f"autodiff.{p}", "self_ns")
        m[f"autodiff.{p}.calls"] = op(f"autodiff.{p}", "calls")
    m["autodiff.pointwise.ms"] = prim_sum(pointwise, "self_ns")
    m["autodiff.pointwise.calls"] = prim_sum(pointwise, "calls")
    m["autodiff.other.ms"] = prim_sum(other, "self_ns")
    m["autodiff.other.calls"] = prim_sum(other, "calls")
    m["autodiff.calls"] = prim_sum(prims, "calls")
    m["autodiff.backward.ms"] = op("autodiff.backward", "total_ns")
    m["autodiff.backward.calls"] = op("autodiff.backward", "calls")
    m["network.pass1.ms"] = op("network.pass1", "total_ns")
    m["network.pass2.ms"] = op("network.pass2", "total_ns")
    m["network.self.ms"] = sum(op(s, "self_ns") for s in NETWORK_SPANS)
    m["region_aware.ra_apply.ms"] = op("region_aware.ra_apply", "total_ns")
    m["bayes.bayes_loss.ms"] = op("bayes.bayes_loss", "total_ns")
    m["bayes.posteriors.ms"] = op("bayes.posteriors", "total_ns")
    m["bayes.posteriors.calls"] = op("bayes.posteriors", "calls")
    m["training.step_self.ms"] = op("training.train_epoch", "self_ns")
    m["datagen.gen_scene.ms"] = per(setup_totals, n_setups, "datagen.gen_scene", "total_ns")
    m["training.load_checkpoint.ms"] = per(
        setup_totals, n_setups, "training.load_checkpoint", "total_ns")
    m["trace.overhead"] = statistics.median(traced_ms) / statistics.median(untraced_ms)
    return m
