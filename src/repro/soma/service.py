"""The SOMA service: per-namespace instances behind Mochi-style RPC.

SOMA "enables the partitioning of monitoring service resources into one
or more independent instances, each of which is responsible for
monitoring data from one source" (paper Sec 2.2).  The service runs as
an RP *service task*: scheduled before any application task, resident
for the whole workflow, shut down by RP at the end.

``SomaServiceModel`` is the :class:`~repro.rp.model.ServiceModel` RP
executes; its ``setup`` brings up one RPC server per namespace (with
the configured number of ranks each) and publishes their addresses in
the session's RPC registry so clients can connect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from ..conduit import Node as ConduitNode
from ..messaging.rpc import RPCRequest, RPCServer
from ..rp.description import TaskDescription, TaskMode
from ..rp.model import ExecutionContext, ServiceModel
from .namespaces import ALL_NAMESPACES
from .sharding import (
    DEFAULT_VNODES,
    AdmissionController,
    HashRing,
    ShardRouter,
    instance_names,
    shard_key,
    shared_ring,
)
from .storage import NamespaceStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.retry import RetryPolicy
    from ..platform.network import Network
    from ..platform.node import Node
    from ..rp.session import Session
    from .client import SomaClient

__all__ = [
    "ShardedSomaServiceModel",
    "SomaConfig",
    "SomaServiceModel",
    "soma_service_description",
]


@dataclass(frozen=True, slots=True)
class SomaConfig:
    """Configuration of one SOMA deployment."""

    #: Service ranks per namespace instance (paper Tables 1-2).
    ranks_per_namespace: int = 1
    #: Namespaces to bring up.
    namespaces: tuple[str, ...] = ALL_NAMESPACES
    #: Monitoring/publication period in seconds (60 in most paper
    #: experiments; 10 in the "frequent" Scaling B runs).
    monitoring_frequency: float = 60.0
    #: Which monitor clients to deploy (proc / rp / tau).
    monitors: tuple[str, ...] = ("proc", "rp")
    #: Hardware-monitor sampling period, if different (Fig 7 uses 30 s).
    hardware_frequency: float | None = None
    #: Per-call CPU service time parameters of the instance servers.
    base_service_time: float = 2e-4
    per_byte_service_time: float = 2e-9
    #: Registry name prefix; clients look up "<prefix>.<namespace>"
    #: (single instance) or "<prefix>.<instance>.<namespace>" (sharded).
    registry_prefix: str = "soma"
    #: Retry policy handed to every monitor's SOMA client (None = each
    #: publish is a single attempt, as in the failure-free paper runs).
    retry: "RetryPolicy | None" = None
    #: Shard-instance count for a facility deployment; 0 keeps the
    #: classic single-instance service the paper describes.
    shards: int = 0
    #: Virtual nodes per shard instance on the consistent-hash ring.
    ring_vnodes: int = DEFAULT_VNODES
    #: Tenant this deployment's own clients publish as (facility runs
    #: override per pilot via :meth:`make_client`).
    tenant: str = "default"
    #: Per-tenant publish budget, tokens/second, enforced per shard
    #: instance; None disables admission control (the differential
    #: battery requires the disabled path to be byte-identical to the
    #: unsharded service).
    admission_rate: float | None = None
    #: Token-bucket depth: how large a publish burst a quiet tenant
    #: may land before the rate limit bites.
    admission_burst: float = 10.0

    @property
    def effective_hardware_frequency(self) -> float:
        return (
            self.hardware_frequency
            if self.hardware_frequency is not None
            else self.monitoring_frequency
        )

    @property
    def sharded(self) -> bool:
        return self.shards > 0

    @property
    def instance_names(self) -> tuple[str, ...]:
        return instance_names(self.shards) if self.sharded else ()

    @property
    def total_ranks(self) -> int:
        return self.ranks_per_namespace * len(self.namespaces) * max(
            1, self.shards
        )

    def make_ring(self) -> HashRing:
        """The deployment's ring, shared read-only by service and clients."""
        if not self.sharded:
            raise ValueError("single-instance SOMA config has no ring")
        return shared_ring(self.instance_names, vnodes=self.ring_vnodes)

    def make_router(self) -> ShardRouter:
        """The client-side router matching this deployment's layout."""
        ring = self.make_ring() if self.sharded else None
        return ShardRouter(registry_prefix=self.registry_prefix, ring=ring)

    def make_client(
        self,
        session: "Session",
        name: str,
        node: "Node | None" = None,
        tenant: str | None = None,
    ) -> "SomaClient":
        """A SOMA client wired for this deployment (routing + tenancy).

        Every monitor and application stub should obtain its client
        here so sharding and tenancy stay deployment-side decisions.
        """
        from .client import SomaClient

        return SomaClient(
            session,
            name=name,
            node=node,
            registry_prefix=self.registry_prefix,
            retry=self.retry,
            tenant=tenant if tenant is not None else self.tenant,
            router=self.make_router(),
        )

    def with_updates(self, **kwargs: Any) -> "SomaConfig":
        return replace(self, **kwargs)


class SomaServiceModel(ServiceModel):
    """The long-running SOMA service task."""

    def __init__(self, session: "Session", config: SomaConfig) -> None:
        self.session = session
        self.config = config
        # Namespace maps are written by the service process and read by
        # every monitor/client process; opted in to the kernel's
        # write-between-yields race detection under sanitize=True.
        env = session.env
        self.servers: "dict[str, RPCServer]" = env.shared_dict("soma.servers")
        self.stores: "dict[str, NamespaceStore]" = env.shared_dict("soma.stores")
        prov = getattr(session.telemetry, "provenance", None)
        for ns in config.namespaces:
            store = NamespaceStore(ns)
            if prov is not None:
                prov.watch_store(store, name=ns)
            self.stores[ns] = store
        self.publishes = 0
        self.started_at: float | None = None

    # -- RP service lifecycle -----------------------------------------------

    def setup(self, ctx: ExecutionContext):
        """Bring up one RPC server per namespace on our node(s)."""
        self.started_at = ctx.env.now
        for i, namespace in enumerate(self.config.namespaces):
            # Namespace instances are spread round-robin over the
            # service task's nodes.
            node = ctx.placements[i % len(ctx.placements)].node
            server = RPCServer(
                env=ctx.env,
                network=ctx.network,
                node=node,
                name=f"{self.config.registry_prefix}.{namespace}",
                ranks=self.config.ranks_per_namespace,
                base_service_time=self.config.base_service_time,
                per_byte_service_time=self.config.per_byte_service_time,
                component="soma-service",
            )
            store = self.stores[namespace]
            server.register(
                "publish", self._make_publish_handler(namespace, store)
            )
            server.register(
                "query", self._make_query_handler(namespace, store)
            )
            self.servers[namespace] = server
            self.session.rpc_registry.publish(server)
            self.session.tracer.record(
                "soma.instance",
                namespace,
                node=node.name,
                ranks=self.config.ranks_per_namespace,
            )
        return
        yield  # pragma: no cover - setup is synchronous here

    def teardown(self, ctx: ExecutionContext) -> None:
        for server in self.servers.values():
            server.shutdown()
        self.session.tracer.record("soma.service", "teardown")

    # -- handlers ---------------------------------------------------------------

    def _make_publish_handler(self, namespace: str, store: NamespaceStore):
        def handle(request: RPCRequest) -> dict[str, Any]:
            data = request.body
            if not isinstance(data, ConduitNode):
                raise TypeError(
                    f"publish to {namespace!r} expects a Conduit Node, "
                    f"got {type(data).__name__}"
                )
            # The publisher sized the tree for the wire; store that
            # size rather than walking the tree a second time.
            record = store.append(
                time=self.session.env.now,
                source=request.client,
                data=data,
                nbytes=request.payload_bytes,
            )
            self.publishes += 1
            # Storage-layer visibility: lands on the active rpc.serve
            # span (the handler runs inside the server's span).
            self.session.telemetry.event(
                "soma.store.append",
                namespace=namespace,
                nbytes=record.nbytes,
                records=len(store),
            )
            self.session.tracer.record(
                "soma.publish",
                namespace,
                source=request.client,
                nbytes=record.nbytes,
            )
            return {"stored": True, "nbytes": record.nbytes}

        return handle

    def _make_query_handler(self, namespace: str, store: NamespaceStore):
        def handle(request: RPCRequest) -> Any:
            body = request.body or {}
            kind = body.get("kind", "records")
            since = body.get("since")
            until = body.get("until")
            source = body.get("source")
            if kind == "records":
                return store.records(source=source, since=since, until=until)
            if kind == "latest":
                return store.latest(source=source)
            if kind == "merged":
                return store.merged(
                    source=source, since=since, until=until, path=body.get("path")
                )
            if kind == "sources":
                return sorted(store.sources())
            if kind == "stats":
                return {
                    "records": len(store),
                    "bytes": store.total_bytes,
                    "sources": len(store.sources()),
                }
            raise ValueError(f"unknown query kind {kind!r}")

        return handle

    # -- observability ---------------------------------------------------------

    def queue_stats(self) -> dict[str, dict[str, float]]:
        """Per-server ingest statistics, detector-ready.

        Keys match the server map (namespace, or instance.namespace
        when sharded); values are the plain-data shape
        :class:`~repro.analysis.bottleneck.DetectionContext` consumes,
        including the windowed burst peak so long quiet runs cannot
        dilute a saturation episode out of sight.
        """
        stats: dict[str, dict[str, float]] = {}
        for name, server in sorted(self.servers.items()):
            s = server.stats
            stats[name] = {
                "ranks": server.ranks,
                "calls": s.calls,
                "errors": s.errors,
                "rejections": s.rejections,
                "mean_queue_seconds": s.mean_queue_time,
                "peak_window_queue_seconds": s.worst_window_queue_time,
                "busy_seconds": s.busy_time,
            }
        return stats

    # -- offline access (after the run) ---------------------------------------------

    def store(self, namespace: str) -> NamespaceStore:
        return self.stores[namespace]


class ShardedSomaServiceModel(SomaServiceModel):
    """N independent SOMA instances behind one consistent-hash ring.

    Instance ``s<i>`` runs the full namespace set (its own stores and
    RPC servers, registry names ``<prefix>.<instance>.<namespace>``)
    and lands on ``nodes[i % len(nodes)]`` — distinct nodes when the
    deployment has them, co-located when it does not (the differential
    battery uses a single service node so sharded and single-instance
    runs see identical network/CPU contention).

    Routing lives entirely client-side (:class:`ShardRouter`); the
    instances never talk to each other, so a shard outage is contained
    by construction — the chaos battery pins that.
    """

    def __init__(self, session: "Session", config: SomaConfig) -> None:
        if not config.sharded:
            raise ValueError("ShardedSomaServiceModel needs config.shards > 0")
        self.session = session
        self.config = config
        env = session.env
        self.servers: "dict[str, RPCServer]" = env.shared_dict("soma.servers")
        self.stores: "dict[str, NamespaceStore]" = env.shared_dict("soma.stores")
        self.ring = config.make_ring()
        #: Per-instance admission controllers (empty when disabled).
        self.admission: dict[str, AdmissionController] = {}
        prov = getattr(session.telemetry, "provenance", None)
        for instance in config.instance_names:
            for ns in config.namespaces:
                store = NamespaceStore(ns)
                if prov is not None:
                    prov.watch_store(store, name=f"{instance}.{ns}")
                self.stores[f"{instance}.{ns}"] = store
        self.publishes = 0
        self.started_at: float | None = None

    def bring_up(self, nodes: "list[Node]", network: "Network") -> None:
        """Start every instance's servers; callable without RP machinery.

        The facility scenario boots the service directly on a node
        list; the RP service-task path (:meth:`setup`) funnels through
        here too so both deployments share one layout.
        """
        env = self.session.env
        self.started_at = env.now
        for i, instance in enumerate(self.config.instance_names):
            node = nodes[i % len(nodes)]
            controller = None
            if self.config.admission_rate is not None:
                controller = AdmissionController(
                    env,
                    rate=self.config.admission_rate,
                    burst=self.config.admission_burst,
                )
                self.admission[instance] = controller
            for namespace in self.config.namespaces:
                key = f"{instance}.{namespace}"
                server = RPCServer(
                    env=env,
                    network=network,
                    node=node,
                    name=f"{self.config.registry_prefix}.{key}",
                    ranks=self.config.ranks_per_namespace,
                    base_service_time=self.config.base_service_time,
                    per_byte_service_time=self.config.per_byte_service_time,
                    component="soma-service",
                    admission=controller,
                )
                store = self.stores[key]
                server.register(
                    "publish", self._make_publish_handler(namespace, store)
                )
                server.register(
                    "query", self._make_query_handler(namespace, store)
                )
                self.servers[key] = server
                self.session.rpc_registry.publish(server)
                self.session.tracer.record(
                    "soma.instance",
                    key,
                    node=node.name,
                    ranks=self.config.ranks_per_namespace,
                )

    def setup(self, ctx: ExecutionContext):
        """RP service-task entry: spread instances over distinct nodes."""
        nodes: "list[Node]" = []
        for placement in ctx.placements:
            if placement.node not in nodes:
                nodes.append(placement.node)
        self.bring_up(nodes, ctx.network)
        return
        yield  # pragma: no cover - setup is synchronous here

    # -- observability ---------------------------------------------------------

    def admission_counters(self) -> dict[str, dict[str, dict[str, int]]]:
        """Per-instance, per-tenant admitted/rejected counts."""
        return {
            instance: controller.counters()
            for instance, controller in sorted(self.admission.items())
        }

    # -- offline access (after the run) ---------------------------------------------

    def store(self, namespace: str, tenant: str | None = None) -> NamespaceStore:
        """The store owning ``(tenant, namespace)`` per the ring."""
        tenant = tenant if tenant is not None else self.config.tenant
        owner = self.ring.owner(shard_key(tenant, namespace))
        return self.stores[f"{owner}.{namespace}"]

    def stores_for(self, namespace: str) -> dict[str, NamespaceStore]:
        """Every instance's store for ``namespace`` (facility counts)."""
        return {
            instance: self.stores[f"{instance}.{namespace}"]
            for instance in self.config.instance_names
        }


def soma_service_description(
    session: "Session",
    config: SomaConfig,
    ranks: int | None = None,
) -> TaskDescription:
    """The RP task description for the SOMA service task.

    The service task "can specify its resource requirements like any
    other regular RP application task" (Sec 2.3.1): one core per
    service rank, spreading over multiple service nodes when the rank
    count exceeds one node (Scaling B runs up to 1024 ranks).

    A sharded config (``config.shards > 0``) yields the facility-style
    :class:`ShardedSomaServiceModel` instead of the classic single
    instance; the task shape is otherwise identical.
    """
    model: SomaServiceModel = (
        ShardedSomaServiceModel(session, config)
        if config.sharded
        else SomaServiceModel(session, config)
    )
    return TaskDescription(
        name="soma-service",
        model=model,
        ranks=ranks if ranks is not None else config.total_ranks,
        cores_per_rank=1,
        mode=TaskMode.SERVICE,
        multi_node=True,
        metadata={"soma_model": model},
    )
