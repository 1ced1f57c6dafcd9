"""Known-good: explicit ordering before any scheduling decision."""

import zlib


def schedule_ready(ready_names, start_task):
    for name in sorted(set(ready_names)):
        start_task(name)


def next_task(queue):
    return min(queue.items(), key=lambda kv: (kv[1], kv[0]))


def all_done(task_done_events):
    # Materializing a dict view into a list is not a tie-break.
    return list(task_done_events.values())


def private_node(owner, bb_hosts):
    # A stable checksum picks the same node under every PYTHONHASHSEED.
    return bb_hosts[zlib.adler32(owner.encode()) % len(bb_hosts)]


class HostKey:
    def __init__(self, name, index):
        self.name = name
        self.index = index

    def __hash__(self):
        return hash((self.name, self.index))
