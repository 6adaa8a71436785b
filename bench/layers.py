"""Per-layer metrics from a traced run's span table.

Names follow `<module>.<callable>.<stat>`. Counts repeat exactly between
traced runs of one seed; times do not. `LAYER_MAP` records, for each
metric, the end-to-end metric it should move and on which workloads.
"""

from __future__ import annotations

import math

from tracer import SpanTable

# points per chunk in the table-map solve (rosenblatt._CHUNK)
CHUNK_POINTS = 2 ** 14

_COMPONENT_METHODS = ("value", "partial", "inverse_exact")
_BERNSTEIN_CLASSES = ("hypothesis.BernsteinComponent", "hypothesis._QuadBernstein")
_WRITERS = ("density.write_text_atomic", "density.write_json_atomic")

# metric -> (end-to-end metric it should move, workloads)
LAYER_MAP = {
    "cli.self_s": ("units_per_s", ["sample2d"]),
    "cli.write.bytes": ("units_per_s", ["sample2d"]),
    "cli.write.total_s": ("units_per_s", ["sample2d"]),
    "_svg.render_rate_plot.total_s": ("wall_s, slightly", ["rate1d"]),
    "rng.uniforms.calls": ("units_per_s", ["sample2d", "rate1d"]),
    "rng.uniforms.points": ("units_per_s", ["sample2d", "rate1d"]),
    "rng.uniforms.total_s": ("units_per_s", ["sample2d", "rate1d"]),
    "density.make_density.total_s": ("setup_s", ["sample2d", "fit2d_net"]),
    "density.prefix_marginal_tables.total_s": ("setup_s", ["sample2d", "fit2d_net"]),
    "density.GridDensity.evaluate.points": ("units_per_s", ["rate1d"]),
    "density.GridDensity.evaluate.total_s": ("units_per_s", ["rate1d"]),
    "rosenblatt.build_rosenblatt.total_s": ("setup_s", ["sample2d", "fit2d_net"]),
    "rosenblatt.sample.total_s": ("units_per_s", ["sample2d"]),
    "rosenblatt.TableComponent.total_s": ("units_per_s", ["sample2d"]),
    "rosenblatt.TableComponent.calls_per_chunk": ("units_per_s", ["sample2d"]),
    "rosenblatt.TriangularMap.apply.table.calls": ("units_per_s", ["sample2d"]),
    "rosenblatt.TriangularMap.apply.table.points": ("units_per_s", ["sample2d"]),
    "rosenblatt.TriangularMap.apply.table.self_s": ("units_per_s", ["sample2d"]),
    "rosenblatt.TriangularMap.apply.bernstein.calls":
        ("units_per_s", ["rate1d", "fit2d_net"]),
    "rosenblatt.TriangularMap.apply.bernstein.points":
        ("units_per_s", ["rate1d", "fit2d_net"]),
    "rosenblatt.TriangularMap.apply.bernstein.self_s":
        ("units_per_s", ["rate1d", "fit2d_net"]),
    "rosenblatt.PushforwardDensity.evaluate.calls":
        ("units_per_s", ["rate1d", "fit2d_net"]),
    "rosenblatt.PushforwardDensity.evaluate.points":
        ("units_per_s", ["rate1d", "fit2d_net"]),
    "rosenblatt.PushforwardDensity.evaluate.total_s":
        ("units_per_s", ["rate1d", "fit2d_net"]),
    "rosenblatt.PushforwardDensity.evaluate.us_per_point":
        ("units_per_s", ["rate1d", "fit2d_net"]),
    "hypothesis.BernsteinComponent.calls_per_eval":
        ("units_per_s", ["rate1d", "fit2d_net"]),
    "hypothesis.make_generator.calls": ("units_per_s", ["rate1d", "fit2d_net"]),
    "hypothesis.make_generator.total_s": ("units_per_s", ["rate1d", "fit2d_net"]),
    "hypothesis.make_config.total_s": ("setup_s", ["fit2d_net"]),
    "hypothesis.build_eps_net.total_s": ("setup_s", ["rate1d", "fit2d_net"]),
    "hypothesis.family_delta1.total_s": ("wall_s", ["rate1d"]),
    "holder.estimate_holder_norm.calls": ("setup_s", ["fit2d_net"]),
    "holder.estimate_holder_norm.total_s": ("setup_s", ["fit2d_net"]),
    "divergence.js_divergence.calls": ("wall_s", ["fit2d_net"]),
    "divergence.js_divergence.total_s": ("wall_s", ["fit2d_net"]),
    "learning.empirical_pair_matrix.calls": ("units_per_s", ["rate1d", "fit2d_net"]),
    "learning.empirical_pair_matrix.total_s": ("units_per_s", ["rate1d", "fit2d_net"]),
    "learning.empirical_pair_matrix.self_s": ("units_per_s", ["rate1d", "fit2d_net"]),
    "learning.sampling_error_values.n<N>.total_s": ("units_per_s", ["rate1d"]),
    "learning.pair_loss_matrix.total_s": ("units_per_s", ["rate1d"]),
    "learning.make_training_sample.total_s": ("setup_s", ["fit2d_net"]),
    "learning.minimax_fit.total_s": ("units_per_s", ["fit2d_net"]),
    "bounds.bound_report.total_s": ("wall_s, slightly", ["rate1d"]),
    "bounds.thm54_threshold_and_prob.calls": ("wall_s, slightly", ["rate1d"]),
    "trace.overhead_s": ("none: traced wall minus untraced median wall", [
        "sample2d", "rate1d", "fit2d_net"]),
}

_UNITS = {"_s": "s", ".us_per_point": "us", ".bytes": "bytes",
          ".calls_per_chunk": "calls/chunk", ".calls_per_eval": "calls/eval"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in _UNITS.items() if name.endswith(suffix)), "count")


# span name -> the statistics reported for it, as `<span name>.<stat>`
_SPAN_STATS = {
    "_svg.render_rate_plot": ("total_s",),
    "rng.uniforms": ("calls", "points", "total_s"),
    "density.make_density": ("total_s",),
    "density.prefix_marginal_tables": ("total_s",),
    "density.GridDensity.evaluate": ("points", "total_s"),
    "rosenblatt.build_rosenblatt": ("total_s",),
    "rosenblatt.sample": ("total_s",),
    "rosenblatt.TriangularMap.apply.table": ("calls", "points", "self_s"),
    "rosenblatt.TriangularMap.apply.bernstein": ("calls", "points", "self_s"),
    "rosenblatt.PushforwardDensity.evaluate": ("calls", "points", "total_s"),
    "hypothesis.make_generator": ("calls", "total_s"),
    "hypothesis.make_config": ("total_s",),
    "hypothesis.build_eps_net": ("total_s",),
    "hypothesis.family_delta1": ("total_s",),
    "holder.estimate_holder_norm": ("calls", "total_s"),
    "divergence.js_divergence": ("calls", "total_s"),
    "learning.empirical_pair_matrix": ("calls", "total_s", "self_s"),
    "learning.pair_loss_matrix": ("total_s",),
    "learning.make_training_sample": ("total_s",),
    "learning.minimax_fit": ("total_s",),
    "bounds.bound_report": ("total_s",),
    "bounds.thm54_threshold_and_prob": ("calls",),
}


def layer_metrics(spans: SpanTable) -> dict:
    """Every per-layer metric this benchmark defines, as name -> value."""
    per_n = {n: ("total_s",) for n in spans.names
             if n.startswith("learning.sampling_error_values.n")}
    out = {}
    for name, keys in {**_SPAN_STATS, **per_n}.items():
        st = spans.stats(name)
        out.update({f"{name}.{key}": st[key] for key in keys})

    out["cli.self_s"] = spans.stats("cli.main")["self_s"]
    out["cli.write.bytes"] = spans.stats("density.write_text_atomic")["points"]
    out["cli.write.total_s"] = spans.stats(*_WRITERS)["total_s"]

    table_names = [f"rosenblatt.TableComponent.{m}{tag}"
                   for m in _COMPONENT_METHODS for tag in ("", ".row")]
    out["rosenblatt.TableComponent.total_s"] = spans.stats(*table_names)["total_s"]
    row_calls = spans.stats(*[n for n in table_names if n.endswith(".row")])["calls"]
    table_apply = spans.ids("rosenblatt.TriangularMap.apply.table")
    chunks = sum(math.ceil(spans.points[i] / CHUNK_POINTS)
                 for i, nid in enumerate(spans.name) if nid in table_apply)
    out["rosenblatt.TableComponent.calls_per_chunk"] = row_calls / chunks if chunks else 0.0

    evals = out["rosenblatt.PushforwardDensity.evaluate.calls"]
    points = out["rosenblatt.PushforwardDensity.evaluate.points"]
    out["rosenblatt.PushforwardDensity.evaluate.us_per_point"] = (
        1e6 * out["rosenblatt.PushforwardDensity.evaluate.total_s"] / points
        if points else 0.0)
    comp_ids = spans.ids(*[f"{cls}.{m}" for cls in _BERNSTEIN_CLASSES
                           for m in _COMPONENT_METHODS])
    in_eval = spans.under(spans.ids("rosenblatt.PushforwardDensity.evaluate"))
    comp_calls = sum(1 for i, nid in enumerate(spans.name) if nid in comp_ids and in_eval[i])
    out["hypothesis.BernsteinComponent.calls_per_eval"] = comp_calls / evals if evals else 0.0
    return out
