"""Property-based tests for ``Node.nbytes``.

``nbytes`` is the size the simulated RPC layer charges for a publish and
the size SOMA stores with each record, so every byte of it is part of
the simulated results.  It walks the tree once, adding up name lengths;
on every tree it must equal the definition it replaced: for each leaf,
the length of its ``/``-joined path plus its value's size.
"""

import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.conduit import Node

scalar = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
    st.binary(max_size=12),
)
leaf = st.one_of(scalar, st.lists(st.integers(min_value=0, max_value=9), max_size=4))
name = st.text(alphabet=string.ascii_letters + "._-é", min_size=1, max_size=6)
# Nested dicts become object nodes; an empty dict is an empty object
# node, which holds no leaf and so costs nothing.
tree = st.recursive(leaf, lambda sub: st.dictionaries(name, sub, max_size=4), max_leaves=30)


def leaves_nbytes(node: Node) -> int:
    """Size as the sum over ``leaves()`` of path length + value size."""
    total = 0
    for path, value in node.leaves():
        total += len(path)
        if isinstance(value, str):
            total += len(value)
        elif isinstance(value, bytes):
            total += len(value)
        elif isinstance(value, bool) or value is None:
            total += 1
        elif isinstance(value, int):
            total += 8
        elif isinstance(value, float):
            total += 8
        elif isinstance(value, list):
            total += 8 * len(value)
    return total


@given(tree)
@example(5)  # a root leaf: empty path
@example(True)  # bool sizes as 1, not as an int's 8
@example(None)
@example({})
@example({"a": {"b": {"c": {"d": {"e": {"f": {"g": {"h": b"\x00\x01"}}}}}}}})
@example({"x": [1, 2, 3], "y": {"z": {}, "w": False}})
@settings(max_examples=300, deadline=None)
def test_nbytes_equals_the_leaves_definition(data):
    node = Node.from_dict(data)
    assert node.nbytes() == leaves_nbytes(node)


@given(tree, st.lists(name, min_size=1, max_size=6).map("/".join))
@settings(max_examples=100, deadline=None)
def test_subtree_nbytes_counts_paths_from_the_subtree(data, path):
    root = Node()
    root[path] = data
    sub = root.fetch(path)
    assert sub.nbytes() == leaves_nbytes(sub)
    assert root.nbytes() == leaves_nbytes(root)
