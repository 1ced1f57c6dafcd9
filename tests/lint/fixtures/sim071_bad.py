"""Known-bad: queue-policy select() emits telemetry (SIM071)."""

from repro.obs import WaitCause
from repro.wms.policies import PlanPolicy, QueuePolicy


class ChattyPolicy(QueuePolicy):
    name = "chatty"

    def select(self, queue, free, now, running):
        picks = []
        for index, request in enumerate(queue):
            if request.amount <= free:
                picks.append(index)
                free -= request.amount
            else:
                # Double-counts the wait: the allocator already
                # reported it when the request queued.
                self.obs.on_task_blocked(request.tag, WaitCause.CORES)  # expect[SIM071]
        return picks


class LoggingBackfill(QueuePolicy):
    name = "logging-backfill"

    def select(self, queue, free, now, running):
        self.obs.log_event("wms", "select", depth=len(queue))  # expect[SIM071]
        granted = [i for i, r in enumerate(queue) if r.amount <= free]
        for index in granted:
            self.obs.on_task_unblocked(queue[index].tag, WaitCause.CORES)  # expect[SIM071]
            self.obs.on_bb_lease("granted", job=queue[index].tag)  # expect[SIM071]
        return granted


class TracedPlan(PlanPolicy):
    name = "traced-plan"

    def select(self, queue, free, now, running):
        self.obs.log_event("wms", "plan", depth=len(queue))  # expect[SIM071]
        return super().select(queue, free, now, running)
