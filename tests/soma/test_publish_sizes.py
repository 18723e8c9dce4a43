"""Stored publish sizes equal the tree's size.

The publish handler stores the size the publisher computed for the wire
(``RPCRequest.payload_bytes``) instead of walking the tree again.  That
is only right if every publisher charges exactly ``data.nbytes()`` and
nothing changes the tree in flight, so check every stored record, for
the monitors' publishes and for the fault injector's raw ones.
"""

from repro.experiments import run_ddmd_experiment, tuning_experiment
from repro.experiments.facility import FacilitySpec, run_facility
from repro.faults import FaultPlan
from repro.soma.storage import NamespaceStore


def collect_stores(monkeypatch) -> list[NamespaceStore]:
    stores: list[NamespaceStore] = []
    init = NamespaceStore.__init__

    def tracked(self, namespace: str) -> None:
        init(self, namespace)
        stores.append(self)

    monkeypatch.setattr(NamespaceStore, "__init__", tracked)
    return stores


def assert_sizes_exact(stores: list[NamespaceStore]) -> int:
    records = [record for store in stores for record in store.records()]
    for record in records:
        assert record.nbytes == record.data.nbytes(), record
    assert sum(store.total_bytes for store in stores) == sum(
        record.nbytes for record in records
    )
    return len(records)


def test_ddmd_records_store_their_tree_size(monkeypatch):
    stores = collect_stores(monkeypatch)
    run_ddmd_experiment(tuning_experiment(), seed=7)
    assert assert_sizes_exact(stores) > 100


def test_fault_injector_publishes_store_their_tree_size(monkeypatch):
    stores = collect_stores(monkeypatch)
    spec = FacilitySpec(
        pilots=4, shards=2, service_nodes=2, tasks_per_pilot=6, period=30.0
    )
    plan = FaultPlan().tenant_flood(30.0, "s00", tenant="noisy", rate=2.0, duration=20.0)
    result = run_facility(spec, seed=7, fault_plan=plan)
    assert result.faults_applied == 1
    assert assert_sizes_exact(stores) > 0
    flood = [
        record
        for store in stores
        for record in store.records()
        if "FLOOD" in record.data
    ]
    assert flood
