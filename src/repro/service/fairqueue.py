"""Per-tenant FIFOs under deficit round-robin dispatch.

One heavy tenant must not starve the others: each tenant gets its own
FIFO, and the dispatcher serves them deficit-round-robin (Shreedhar &
Varghese).  The cost unit is *simulated replay seconds* (a 60 s replay
cell is ~7.5x the work of an 8 s one), so fairness is in work, not in
request count -- a tenant submitting long cells gets proportionally
fewer of them per round.

Determinism: tenant service order is arrival order of their first
pending request (a ``deque`` of active tenants), every operation is a
pure function of the push/pop sequence, and no clock or randomness is
involved -- the virtual-time load generator replays byte-identical
dispatch sequences from identical arrival traces.
"""

from collections import deque
from math import inf


class DeficitRoundRobin:
    """DRR scheduler over per-tenant FIFO queues.

    Parameters:
        quantum: deficit added per round visit, in cost units (the
            service uses simulated replay seconds).
    """

    def __init__(self, quantum=8.0):
        # NaN fails both guards: a NaN quantum or cost would leave pop()
        # waiting forever for ``deficit >= cost``.
        if not 0.0 < quantum < inf:
            raise ValueError("quantum must be finite and positive")
        self.quantum = float(quantum)
        self._queues = {}  # tenant -> deque[(cost, item)]
        self._active = deque()  # tenants with pending work, service order
        self._deficit = {}
        self._depth = 0

    def __len__(self):
        return self._depth

    def depth(self, tenant):
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0

    def tenants(self):
        """Tenants with pending work, in current service order."""
        return [t for t in self._active if self._queues.get(t)]

    def push(self, tenant, item, cost=1.0):
        if not 0.0 < cost < inf:
            raise ValueError("cost must be finite and positive")
        queue = self._queues.get(tenant)
        if queue is None:
            queue = deque()
            self._queues[tenant] = queue
        if not queue:
            # (Re)activation: join the end of the service order with a
            # clean slate -- an idle tenant must not bank deficit.
            self._active.append(tenant)
            self._deficit[tenant] = 0.0
        queue.append((float(cost), item))
        self._depth += 1

    def pop(self):
        """Next ``(tenant, item)`` in DRR order, or None when empty.

        Classic DRR: the head tenant's deficit grows by one quantum per
        visit; it may emit items while the deficit covers their cost,
        then rotates to the back of the active list.
        """
        while self._active:
            tenant = self._active[0]
            queue = self._queues.get(tenant)
            if not queue:
                # Went idle: leave the round and drop banked deficit.
                self._active.popleft()
                self._deficit.pop(tenant, None)
                continue
            cost, item = queue[0]
            if self._deficit[tenant] >= cost:
                self._deficit[tenant] -= cost
                queue.popleft()
                self._depth -= 1
                if not queue:
                    self._active.popleft()
                    self._deficit.pop(tenant, None)
                return tenant, item
            self._deficit[tenant] += self.quantum
            self._active.rotate(-1)
        return None

    def remove_if(self, predicate):
        """Remove queued items where ``predicate(tenant, item)`` is true.

        Returns the removed ``(tenant, item)`` pairs in queue order.
        Used by the deadline sweeper: expired submissions leave the
        queue without being dispatched (and without costing a worker).
        """
        removed = []
        for tenant, queue in self._queues.items():
            kept = deque()
            for cost, item in queue:
                if predicate(tenant, item):
                    removed.append((tenant, item))
                    self._depth -= 1
                else:
                    kept.append((cost, item))
            self._queues[tenant] = kept
        return removed

    def drain_all(self):
        """Remove and return every queued ``(tenant, item)``, DRR-fair order.

        Used by the graceful drain to persist the pending queue: the
        persisted order is the order a healthy service would have
        dispatched, so a restarted service resumes fairly too.
        """
        items = []
        while True:
            entry = self.pop()
            if entry is None:
                return items
            items.append(entry)
