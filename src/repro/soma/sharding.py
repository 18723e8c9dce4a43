"""Consistent-hash sharding and tenancy for the SOMA facility service.

The paper deploys SOMA per workflow: one service instance, one set of
namespace ranks.  A facility deployment shares *one* SOMA service
across hundreds of concurrent pilots, which needs three things this
module provides:

* :class:`HashRing` — a consistent-hash ring with virtual nodes
  mapping ``(tenant, namespace)`` shard keys to service instances.
  Positions come from BLAKE2b over the vnode label, so placement is
  identical across processes, seeds, and ``PYTHONHASHSEED`` values,
  and adding/removing an instance only remaps the keys owned by the
  moved vnode arcs (minimal-remap property, pinned by tests).
* :class:`AdmissionController` — per-tenant token buckets gating the
  publish ingest path.  Refill is pure arithmetic on the simulated
  clock (no kernel events), so arming admission control never
  perturbs event ordering.
* :class:`ShardRouter` — the client-side view: resolves the registry
  name of the instance that owns a given ``(tenant, namespace)``.

Everything here is deliberately plain data + arithmetic: no sim
processes, no RNG, no wall clock — the sharding layer must be exactly
as deterministic as the store it fronts.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..messaging.protocol import RPCRequest
    from ..sim.core import Environment

__all__ = [
    "DEFAULT_VNODES",
    "AdmissionController",
    "HashRing",
    "ShardRouter",
    "TokenBucket",
    "instance_names",
    "shard_key",
    "shared_ring",
]

#: Default virtual nodes per instance.  128 vnodes keeps the max/mean
#: shard-load ratio under ~1.25 for thousands of keys (pinned by the
#: Hypothesis balance test) while keeping ring construction trivial.
DEFAULT_VNODES = 128


def shard_key(tenant: str, namespace: str) -> str:
    """The ring key for one tenant's view of one namespace."""
    return f"{tenant}/{namespace}"


def instance_names(count: int) -> tuple[str, ...]:
    """Canonical shard-instance names: ``s00``, ``s01``, ..."""
    return tuple(f"s{i:02d}" for i in range(count))


def _position(label: str) -> int:
    """Ring position of a label: 64-bit BLAKE2b, platform-independent.

    ``hash()`` would be ``PYTHONHASHSEED``-dependent and break the
    cross-process placement contract; hashlib is stable everywhere.
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each instance contributes ``vnodes`` points at
    ``blake2b("<instance>#<v>")``; a key is owned by the first vnode
    clockwise from ``blake2b(key)`` (wrapping at the top).  Lookup is
    a bisect over the sorted point list — O(log(instances·vnodes)).
    """

    def __init__(
        self, instances: Iterable[str] = (), vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes <= 0:
            raise ValueError("ring needs at least one vnode per instance")
        self.vnodes = vnodes
        #: Sorted (position, instance) points; parallel key list for
        #: bisect (tuples would compare instances on position ties).
        self._points: list[tuple[int, str]] = []
        self._positions: list[int] = []
        self._instances: set[str] = set()
        #: Set by :func:`shared_ring`: membership can no longer change.
        self._read_only = False
        for name in instances:
            self.add(name)

    @property
    def instances(self) -> tuple[str, ...]:
        return tuple(sorted(self._instances))

    def __len__(self) -> int:
        return len(self._instances)

    def __contains__(self, instance: str) -> bool:
        return instance in self._instances

    def _vnode_points(self, instance: str) -> list[tuple[int, str]]:
        return [
            (_position(f"{instance}#{v}"), instance)
            for v in range(self.vnodes)
        ]

    def _check_writable(self) -> None:
        if self._read_only:
            raise ValueError(
                "shared ring is read-only; build a HashRing to change membership"
            )

    def add(self, instance: str) -> None:
        """Join an instance; only keys on its vnode arcs change owner."""
        self._check_writable()
        if instance in self._instances:
            raise ValueError(f"instance {instance!r} already on the ring")
        self._instances.add(instance)
        for point in self._vnode_points(instance):
            insort(self._points, point)
        self._positions = [pos for pos, _ in self._points]

    def remove(self, instance: str) -> None:
        """Leave the ring; its keys fall to the next vnode clockwise."""
        self._check_writable()
        if instance not in self._instances:
            raise ValueError(f"instance {instance!r} not on the ring")
        self._instances.discard(instance)
        self._points = [p for p in self._points if p[1] != instance]
        self._positions = [pos for pos, _ in self._points]

    def owner(self, key: str) -> str:
        """The instance owning ``key`` (first vnode clockwise)."""
        if not self._points:
            raise ValueError("ring has no instances")
        index = bisect_right(self._positions, _position(key))
        if index == len(self._points):
            index = 0  # wrap past the top of the ring
        return self._points[index][1]

    def load(self, keys: Iterable[str]) -> dict[str, int]:
        """Keys-per-instance histogram (every instance present)."""
        counts = {name: 0 for name in self._instances}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts


#: Read-only rings by (instance names, vnodes); see :func:`shared_ring`.
_SHARED_RINGS: dict[tuple[tuple[str, ...], int], HashRing] = {}


def shared_ring(
    instances: Iterable[str], vnodes: int = DEFAULT_VNODES
) -> HashRing:
    """The one read-only ring for a layout, shared process-wide.

    Every client of a deployment routes with the same ring, so its
    vnode points are hashed and sorted once per ``(instances, vnodes)``
    instead of once per client.  ``add``/``remove`` on the shared ring
    raise, so no client can change another's placement.
    """
    key = (tuple(instances), vnodes)
    ring = _SHARED_RINGS.get(key)
    if ring is None:
        ring = HashRing(key[0], vnodes)
        ring._read_only = True
        _SHARED_RINGS[key] = ring
    return ring


class TokenBucket:
    """One tenant's publish budget: ``rate`` tokens/s, depth ``burst``.

    Refill happens lazily at admission time from the elapsed simulated
    clock — no timers, no events, nothing a clean run could observe.
    """

    __slots__ = ("rate", "burst", "tokens", "last_refill")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last_refill = 0.0

    def admit(self, now: float) -> bool:
        if now > self.last_refill:
            self.tokens = min(
                self.burst, self.tokens + (now - self.last_refill) * self.rate
            )
            self.last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-tenant token-bucket admission gate for one service instance.

    Plugged into :class:`~repro.messaging.rpc.RPCServer` as its
    ``admission`` callable.  Only ``publish`` calls are throttled —
    queries are cheap, rare, and usually analysis-side; rejecting them
    would starve the observability consumers the service exists for.
    """

    def __init__(
        self, env: "Environment", rate: float, burst: float = 10.0
    ) -> None:
        if rate <= 0:
            raise ValueError("admission rate must be positive")
        self.env = env
        self.rate = rate
        self.burst = burst
        self._buckets: dict[str, TokenBucket] = {}
        #: Per-tenant admitted / rejected counters, for queue_stats().
        self.admitted: dict[str, int] = {}
        self.rejected: dict[str, int] = {}

    def __call__(self, request: "RPCRequest") -> bool:
        if request.method != "publish":
            return True
        bucket = self._buckets.get(request.tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst)
            self._buckets[request.tenant] = bucket
        if bucket.admit(self.env.now):
            self.admitted[request.tenant] = (
                self.admitted.get(request.tenant, 0) + 1
            )
            return True
        self.rejected[request.tenant] = (
            self.rejected.get(request.tenant, 0) + 1
        )
        return False

    def counters(self) -> dict[str, dict[str, int]]:
        """Plain-data per-tenant admission counters."""
        return {
            "admitted": dict(sorted(self.admitted.items())),
            "rejected": dict(sorted(self.rejected.items())),
        }


class ShardRouter:
    """Client-side routing: ``(tenant, namespace)`` → registry name.

    A single-instance deployment routes every namespace to the classic
    ``<prefix>.<namespace>`` name (``ring=None``); a sharded one routes
    through the ring to ``<prefix>.<instance>.<namespace>``.  Clients
    hold a router instead of a ring so the unsharded path stays free
    of hashing entirely.
    """

    def __init__(
        self, registry_prefix: str = "soma", ring: HashRing | None = None
    ) -> None:
        self.registry_prefix = registry_prefix
        self.ring = ring

    def owner(self, tenant: str, namespace: str) -> str | None:
        """The owning instance name, or None when unsharded."""
        if self.ring is None:
            return None
        return self.ring.owner(shard_key(tenant, namespace))

    def registry_name(self, tenant: str, namespace: str) -> str:
        owner = self.owner(tenant, namespace)
        if owner is None:
            return f"{self.registry_prefix}.{namespace}"
        return f"{self.registry_prefix}.{owner}.{namespace}"
