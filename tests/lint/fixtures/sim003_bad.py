"""Known-bad: hash-ordered iteration feeding scheduling (SIM003)."""


def schedule_ready(ready_names, start_task):
    for name in set(ready_names):  # expect[SIM003]
        start_task(name)


def pick_hosts(hosts):
    return [h for h in {h.strip() for h in hosts}]  # expect[SIM003]


def next_task(queue):
    return min(queue.values())  # expect[SIM003]


def busiest(load_by_host):
    return max({h for h in load_by_host})  # expect[SIM003]


def private_node(owner, bb_hosts):
    return bb_hosts[hash(owner) % len(bb_hosts)]  # expect[SIM003]
