"""Per-layer metrics and the layer-share table from the replay's spans.

The replay (e2e_probe replay) writes one "request" span per traced
request, with one child span per layer it crossed, plus one "service"
span per untraced CompilationService::compile of the same request. A
layer's self time is its span's duration minus what its children cover;
layer spans have no children, so the request span's self time is the
glue between layers that no layer owns.
"""

import json
from dataclasses import dataclass

# Layers in request-path order, as the probe names its spans.
LAYERS = ["parse", "preprocess", "hash", "store.load", "build",
          "store.save", "map", "route", "emit"]

# (metric, unit, layer span, count key or None for the span's seconds)
SPAN_METRICS = [
    ("parse.s", "s", "parse", None),
    ("parse.terms", "count", "parse", "terms"),
    ("preprocess.s", "s", "preprocess", None),
    ("preprocess.monomials", "count", "preprocess", "monomials"),
    ("hash.s", "s", "hash", None),
    ("store.load_s", "s", "store.load", None),
    ("store.save_s", "s", "store.save", None),
    ("build.s", "s", "build", None),
    ("build.candidates", "count", "build", "candidates"),
    ("map.s", "s", "map", None),
    ("map.pauli_terms", "count", "map", "pauli_terms"),
    ("route.s", "s", "route", None),
    ("route.swaps", "count", "route", "swaps"),
    ("route.cnots", "count", "route", "cnots"),
    ("route.depth", "count", "route", "depth"),
    ("emit.s", "s", "emit", None),
    ("emit.bytes", "bytes", "emit", "bytes"),
]


def load_spans(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != "e2ebench-spans":
        raise ValueError(f"{path}: not an e2ebench-spans document")
    return doc["spans"]


def _seconds(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-9


@dataclass
class Totals:
    """Per-request means over the replay. Layers a request did not cross
    contribute 0, so a mean is per request of the workload, not per use
    of the layer."""
    requests: int
    seconds: dict   # layer -> seconds per request
    counts: dict    # (layer, key) -> count per request
    service_s: float
    request_s: float
    loads: int
    hits: int


def layer_totals(spans):
    requests = [s for s in spans if s["name"] == "request"]
    service = [s for s in spans if s["name"] == "service"]
    if not requests or len(service) != len(requests):
        raise ValueError("spans need one service span per request span")
    n = len(requests)
    seconds = {layer: 0.0 for layer in LAYERS}
    counts = {}
    roots = {s["id"] for s in requests}
    for s in spans:
        if s["parent"] not in roots:
            continue
        if s["name"] not in seconds:
            raise ValueError(f"unknown layer span {s['name']!r}")
        seconds[s["name"]] += _seconds(s)
        for key, value in s["counts"].items():
            counts[(s["name"], key)] = counts.get((s["name"], key), 0) + value
    return Totals(
        requests=n,
        seconds={layer: total / n for layer, total in seconds.items()},
        counts={k: v / n for k, v in counts.items()},
        service_s=sum(_seconds(s) for s in service) / n,
        request_s=sum(_seconds(s) for s in requests) / n,
        loads=counts.get(("store.load", "loads"), 0),
        hits=counts.get(("store.load", "hits"), 0))


def per_layer_metrics(spans, loop):
    """Every per_layer metric of BENCHMARK.json, as {name: (value, unit)}.

    @p loop holds what the traced run measured on the shipped binaries:
    "oneshot_s" (mean hattc wall clock per request) or "daemon_s" (mean
    hattd round trip) and "ping_rtt_s" (median ping under load); the
    absent ones are 0 because that path is not on the workload.
    """
    t = layer_totals(spans)
    out = {}
    for name, unit, layer, key in SPAN_METRICS:
        value = (t.seconds[layer] if key is None
                 else t.counts.get((layer, key), 0.0))
        out[name] = (value, unit)
    out["store.hit_ratio"] = (t.hits / t.loads if t.loads else 0.0, "ratio")
    emit_s = t.seconds["emit"]
    out["emit.mb_per_s"] = (
        t.counts.get(("emit", "bytes"), 0.0) / emit_s / 1e6 if emit_s
        else 0.0, "MB/s")
    out["service.s"] = (t.service_s, "s")
    out["service.unaccounted_s"] = (
        t.service_s - sum(t.seconds.values()), "s")
    oneshot = loop.get("oneshot_s")
    out["oneshot.overhead_s"] = (
        oneshot - t.service_s if oneshot else 0.0, "s")
    daemon = loop.get("daemon_s")
    out["server.wait_s"] = (daemon - t.service_s if daemon else 0.0, "s")
    out["server.ping_rtt_s"] = (loop.get("ping_rtt_s", 0.0), "s")
    out["trace.overhead_frac"] = (t.request_s / t.service_s - 1.0, "ratio")
    return out, t.requests


def share_table(workload, spans):
    """The layer-share table: each layer's self-time share of the traced
    request, in request-path order, then the request's own glue, then
    the largest layer."""
    t = layer_totals(spans)
    glue = t.request_s - sum(t.seconds.values())
    lines = [f"layer shares on {workload} ({t.requests} traced requests, "
             f"{t.request_s * 1e3:.2f} ms per traced request, "
             f"{t.service_s * 1e3:.2f} ms per untraced service.compile)",
             f"  {'layer':<12} {'ms/request':>11} {'share':>7}"]
    rows = [(layer, t.seconds[layer]) for layer in LAYERS]
    for layer, s in rows + [("(glue)", glue)]:
        lines.append(f"  {layer:<12} {s * 1e3:>11.3f} "
                     f"{s / t.request_s:>7.1%}")
    largest = max(rows, key=lambda row: row[1])[0]
    lines.append(f"  largest layer: {largest}")
    return "\n".join(lines)
