"""Clean: declared metric names at bind sites, by literal or constant."""

from repro.obs import names


def bind(metrics, node, name):
    sent = metrics.bind_counter(names.MESSAGES_SENT, node=node)
    latency = metrics.bind_histogram("collection_latency_s")
    dynamic = metrics.bind_counter(name)  # dynamic: not statically checkable
    return sent, latency, dynamic
