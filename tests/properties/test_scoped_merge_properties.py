"""Property-based tests for path-scoped store reads.

``NamespaceStore.merged(path=p)`` must answer exactly what the whole
merge answers at ``p`` while copying only that subtree: same tree,
fresh nodes, and the same read-tap sequence, over random stores of
random Conduit trees and random ``source`` / ``since`` / ``until``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conduit import Node
from repro.soma.storage import NamespaceStore

# A small alphabet makes publishes overlap, so merges really merge.
segment = st.sampled_from(["a", "b", "c"])
# Every leaf sits at depth 3: no record or merge ever puts a leaf
# where another tree has an object.
leaf_path = st.lists(segment, min_size=3, max_size=3).map("/".join)
# Probes also reach below the leaves, where nothing exists.
probe_path = st.lists(segment, min_size=1, max_size=4).map("/".join)
leaf_value = st.one_of(
    st.integers(min_value=0, max_value=9),
    st.sampled_from(["x", "y"]),
    st.lists(st.integers(min_value=0, max_value=9), max_size=2),
)
tree = st.dictionaries(leaf_path, leaf_value, min_size=1, max_size=4)
source = st.sampled_from(["s0", "s1", "s2"])
publish = st.tuples(st.integers(min_value=0, max_value=6), source, tree)
bound = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
query = st.fixed_dictionaries(
    {
        "source": st.one_of(st.none(), source, st.just("absent")),
        "since": bound,
        "until": bound,
    }
)


def build_store(publishes) -> NamespaceStore:
    store = NamespaceStore("ns")
    for at, src, leaves in publishes:
        data = Node()
        for path, value in leaves.items():
            data[path] = value
        store.append(float(at), src, data)
    return store


def tapped(store: NamespaceStore, read):
    """``read()``'s result and the (op, source, n) taps it fired."""
    seen = []
    store.read_tap = lambda op, src, records: seen.append((op, src, len(records)))
    try:
        return read(), seen
    finally:
        store.read_tap = None


def mutate(node: Node) -> None:
    """Change every node of ``node`` in place, lists included."""
    if node.is_leaf:
        if isinstance(node.value, list):
            node.value.append(-1)
        else:
            node.set("mutated")
        return
    for _name, child in list(node.children()):
        mutate(child)
    node["zz"] = 0


@given(
    publishes=st.lists(publish, max_size=6),
    params=query,
    path=probe_path,
)
@settings(max_examples=200, deadline=None)
def test_scoped_merge_is_the_subtree_of_the_whole_merge(publishes, params, path):
    store = build_store(publishes)
    whole, whole_taps = tapped(store, lambda: store.merged(**params))
    scoped, scoped_taps = tapped(store, lambda: store.merged(path=path, **params))

    expected = whole.find(path)
    if expected is None:
        assert scoped.is_empty
    else:
        assert scoped.to_dict() == expected.to_dict()
    assert scoped_taps == whole_taps


@given(
    publishes=st.lists(publish, min_size=1, max_size=6),
    params=query,
    path=probe_path,
)
@settings(max_examples=100, deadline=None)
def test_scoped_merge_returns_fresh_nodes(publishes, params, path):
    store = build_store(publishes)
    before = [record.data.to_json() for record in store]
    mutate(store.merged(path=path, **params))
    assert [record.data.to_json() for record in store] == before
