"""Bait: undeclared metric names at bind sites (REMO431)."""

from repro.obs import names


def bind(metrics, node):
    sent = metrics.bind_counter("messages_snet", node=node)
    latency = metrics.bind_histogram(names.SPAN_AGENT_WAVE)  # a span name
    return sent, latency
