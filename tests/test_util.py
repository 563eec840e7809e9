"""Shared helpers: splits and payload sizing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import near_equal_splits, sizeof_block


class TestNearEqualSplits:
    def test_examples(self):
        assert near_equal_splits(10, 4) == [0, 2, 5, 7, 10]
        assert near_equal_splits(3, 8) == [0, 1, 2, 3]
        assert near_equal_splits(0, 3) == [0, 0]
        assert near_equal_splits(7, 1) == [0, 7]

    def test_validation(self):
        with pytest.raises(ValueError):
            near_equal_splits(-1, 2)
        with pytest.raises(ValueError):
            near_equal_splits(4, 0)

    @given(
        extent=st.integers(min_value=1, max_value=500),
        parts=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_partition_invariants(self, extent, parts):
        b = near_equal_splits(extent, parts)
        assert b[0] == 0 and b[-1] == extent
        sizes = [hi - lo for lo, hi in zip(b, b[1:])]
        assert all(s >= 1 for s in sizes)
        assert max(sizes) - min(sizes) <= 1  # near-equal
        assert len(sizes) == min(parts, extent)


class TestSizeofBlock:
    def test_numpy_nbytes(self):
        assert sizeof_block(np.zeros((4, 4))) == 128
        assert sizeof_block(np.zeros(3, dtype=bool)) == 3

    def test_containers_measured_recursively(self):
        arr = np.zeros(8)
        assert sizeof_block(("x", arr)) == 8 + 1 + 64
        assert sizeof_block({"u": arr, "v": arr}) == 8 + 2 * (1 + 64)
        assert sizeof_block([arr, arr]) == 8 + 128

    def test_scalars_and_strings(self):
        assert sizeof_block(5) == 8
        assert sizeof_block(None) == 8
        assert sizeof_block("abc") == 3
        assert sizeof_block(b"abcd") == 4

    def test_flat_walk_equals_the_recursive_definition(self):
        """The flat type-dispatched walk reports the byte every report
        has always carried: the old recursive definition, kept here as
        the reference, on the shuffled shapes and on everything the
        ``isinstance`` fallback still owns."""
        import sys

        def reference(value) -> int:
            nbytes = getattr(value, "nbytes", None)
            if nbytes is not None:
                return int(nbytes)
            if isinstance(value, (tuple, list, set, frozenset)):
                return 8 + sum(reference(v) for v in value)
            if isinstance(value, dict):
                return 8 + sum(reference(k) + reference(v) for k, v in value.items())
            if isinstance(value, (bytes, bytearray)):
                return len(value)
            if isinstance(value, str):
                return len(value.encode())
            if isinstance(value, (int, float, complex, bool)) or value is None:
                return 8
            return sys.getsizeof(value)

        class Pair(tuple):
            pass

        class Roles(dict):
            pass

        tile = np.zeros((8, 8))
        tagged = ((0, 1), ("x", tile))  # one role-tagged tile, as shuffled
        roles = ((0, 1), {"x": tile, "u": tile, "v": tile})  # a D record
        assert sizeof_block(tagged) == 553
        assert sizeof_block(roles) == 1579
        payloads = [
            tagged, roles, tile, tile[::2, 1:], np.float64(2.0), np.int8(1), np.bool_(True),
            [], (), {}, [[1, [2.0, [("a", [tile])]]], "é", ""], {1: [2, {3: (4, {5: tile})}]},
            {"s": {1, 2.5, "x"}, "f": frozenset({(1, 2)}), "b": b"abcd", "ba": bytearray(3)},
            ("héllo", None, True, False, 1 + 2j, 3, 4.5, -0.0, 10**30),
            Pair((1, tile)), Roles(x=tile), [Pair(("x", None))], (object(), range(3)),
            memoryview(b"12345"), [memoryview(tile)],
        ]
        for payload in payloads:
            assert sizeof_block(payload) == reference(payload), payload
