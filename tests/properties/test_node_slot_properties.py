"""Property-based tests for a compute node's counted free slots.

``Node.free_cores`` / ``free_gpus`` are kept as counts by ``allocate``
and ``free`` instead of being recounted from the slot maps.  Over random
allocate / free / double-free / fail sequences the counts must equal
the ``None`` slots in the maps, and every allocation (its slots) and
every refusal (its exception and message) must be what the slot-scan
allocator gives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import AllocationError, Node, NodeSpec
from repro.sim import Environment

SPEC = NodeSpec()

operation = st.one_of(
    st.tuples(
        st.just("allocate"),
        st.integers(min_value=-1, max_value=SPEC.usable_cores + 2),
        st.integers(min_value=0, max_value=SPEC.gpus + 1),
    ),
    # Index into the allocations made so far; repeats are double frees.
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("fail")),
)


class ScanningSlots:
    """The slot-scan allocator: counts free slots by scanning the maps."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cores = [None] * SPEC.usable_cores
        self.gpus = [None] * SPEC.gpus
        self.alive = True

    def allocate(self, cores: int, gpus: int, owner: str):
        if not self.alive:
            raise AllocationError(f"{self.name} is down")
        if cores < 0 or gpus < 0:
            raise ValueError("resource counts must be non-negative")
        free_cores = [i for i, o in enumerate(self.cores) if o is None]
        free_gpus = [i for i, o in enumerate(self.gpus) if o is None]
        if len(free_cores) < cores:
            raise AllocationError(
                f"{self.name}: need {cores} cores, only {len(free_cores)} free"
            )
        if len(free_gpus) < gpus:
            raise AllocationError(
                f"{self.name}: need {gpus} GPUs, only {len(free_gpus)} free"
            )
        for slot in free_cores[:cores]:
            self.cores[slot] = owner
        for slot in free_gpus[:gpus]:
            self.gpus[slot] = owner
        return free_cores[:cores], free_gpus[:gpus]


def outcome(call):
    try:
        return ("ok", call())
    except (AllocationError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@given(st.lists(operation, max_size=40))
@settings(max_examples=300, deadline=None)
def test_counted_free_slots_match_the_slot_maps(operations):
    node = Node(Environment(), 0, SPEC)
    reference = ScanningSlots(node.name)
    allocations = []
    released = []
    for step, op in enumerate(operations):
        if op[0] == "allocate":
            _, cores, gpus = op
            owner = f"t{step}"
            got = outcome(lambda: node.allocate(cores, gpus, owner=owner))
            want = outcome(lambda: reference.allocate(cores, gpus, owner))
            if got[0] == "ok":
                allocation = got[1]
                got = ("ok", (allocation.cores, allocation.gpus))
                allocations.append(allocation)
                released.append(False)
            assert got == want
        elif op[0] == "free" and allocations:
            index = op[1] % len(allocations)
            allocation = allocations[index]
            node.free(allocation)
            if not released[index]:
                released[index] = True
                for slot in allocation.cores:
                    reference.cores[slot] = None
                for slot in allocation.gpus:
                    reference.gpus[slot] = None
        elif op[0] == "fail":
            node.fail()
            reference.alive = False
        assert node._core_owner == reference.cores
        assert node._gpu_owner == reference.gpus
        assert node.free_cores == node._core_owner.count(None)
        assert node.free_gpus == node._gpu_owner.count(None)
