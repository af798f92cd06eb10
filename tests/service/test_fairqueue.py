"""Deficit round-robin: fairness, reactivation, removal, drain order."""

import pytest

from repro.service.fairqueue import DeficitRoundRobin


def drain(drr):
    out = []
    while True:
        entry = drr.pop()
        if entry is None:
            return out
        out.append(entry)


class TestDeficitRoundRobin:
    def test_equal_cost_tenants_interleave(self):
        drr = DeficitRoundRobin(quantum=1.0)
        for i in range(3):
            drr.push("a", f"a{i}", cost=1.0)
            drr.push("b", f"b{i}", cost=1.0)
        tenants = [tenant for tenant, _item in drain(drr)]
        assert tenants == ["a", "b", "a", "b", "a", "b"]

    def test_heavy_items_yield_proportionally_fewer_pops(self):
        # Tenant "big" submits items of cost 4, "small" of cost 1, with
        # quantum 2: per round small emits 2 items while big banks
        # deficit and emits one every other round -- work, not request
        # count, is equalized.
        drr = DeficitRoundRobin(quantum=2.0)
        for i in range(4):
            drr.push("big", f"B{i}", cost=4.0)
        for i in range(8):
            drr.push("small", f"s{i}", cost=1.0)
        order = [tenant for tenant, _ in drain(drr)]
        assert order.count("small") == 8 and order.count("big") == 4
        # While both tenants are backlogged (the first 10 pops, before
        # small runs dry), served *work* is equal: 8 small x cost 1
        # against 2 big x cost 4.
        head = order[:10]
        assert head.count("small") == 8
        assert head.count("big") == 2

    def test_fifo_within_tenant(self):
        drr = DeficitRoundRobin(quantum=10.0)
        for i in range(5):
            drr.push("t", i, cost=1.0)
        assert [item for _t, item in drain(drr)] == [0, 1, 2, 3, 4]

    def test_idle_tenant_banks_no_deficit(self):
        drr = DeficitRoundRobin(quantum=1.0)
        drr.push("a", "a0", cost=1.0)
        assert drr.pop() == ("a", "a0")
        # "a" went idle; its deficit state must be gone.
        assert drr._deficit == {}
        # On reactivation it starts from zero, behind nobody.
        drr.push("b", "b0", cost=1.0)
        drr.push("a", "a1", cost=1.0)
        assert [t for t, _ in drain(drr)] == ["b", "a"]

    def test_remove_if_expels_matching_items(self):
        drr = DeficitRoundRobin(quantum=1.0)
        for i in range(4):
            drr.push("t", i, cost=1.0)
        removed = drr.remove_if(lambda tenant, item: item % 2 == 0)
        assert [item for _t, item in removed] == [0, 2]
        assert len(drr) == 2
        assert [item for _t, item in drain(drr)] == [1, 3]

    def test_drain_all_returns_drr_fair_order(self):
        drr = DeficitRoundRobin(quantum=1.0)
        for i in range(2):
            drr.push("a", f"a{i}", cost=1.0)
            drr.push("b", f"b{i}", cost=1.0)
        drained = drr.drain_all()
        assert [t for t, _ in drained] == ["a", "b", "a", "b"]
        assert len(drr) == 0

    def test_depth_accounting(self):
        drr = DeficitRoundRobin()
        assert len(drr) == 0 and drr.depth("x") == 0
        drr.push("x", 1)
        drr.push("y", 2)
        assert len(drr) == 2 and drr.depth("x") == 1
        assert set(drr.tenants()) == {"x", "y"}
        drr.pop()
        assert len(drr) == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DeficitRoundRobin(quantum=0.0)
        with pytest.raises(ValueError):
            DeficitRoundRobin().push("t", "item", cost=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0, -1])
    def test_non_finite_or_non_positive_cost_and_quantum_rejected(self, bad):
        # A NaN cost or quantum would leave pop() waiting forever for
        # ``deficit >= cost``; nothing reaches the queue.
        drr = DeficitRoundRobin()
        with pytest.raises(ValueError):
            drr.push("t", "item", cost=bad)
        assert len(drr) == 0 and drr.pop() is None
        with pytest.raises(ValueError):
            DeficitRoundRobin(quantum=bad)

    def test_pop_empty_returns_none(self):
        assert DeficitRoundRobin().pop() is None
