"""Known-good: solver choice flows through the allocator registry."""

from repro.network import FlowNetwork, resolve_allocator


def build_network(env, name):
    # The registry keeps the discipline nameable (config, sweep, CLI)
    # and lets FlowNetwork pick the component solver.
    return FlowNetwork(env, allocator=name)


def rates_for(name, flow_links, capacities):
    allocator = resolve_allocator(name)
    return allocator(flow_links, capacities)
