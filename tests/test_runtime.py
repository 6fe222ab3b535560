"""Runtime tests: Morton keys and the spatial hash."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import SpatialHash, morton_keys_3d


class TestMorton:
    def test_known_interleaved_keys(self):
        # bit b of i, j, k lands at bit 3b + 2, 3b + 1, 3b of the key
        ijk = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                        [2, 0, 0], [3, 5, 6], [2 ** 21 - 1, 0, 0]])
        expect = [0, 4, 2, 1, 32, 238, 4 * (8 ** 21 - 1) // 7]
        assert morton_keys_3d(ijk).tolist() == expect

    @given(st.lists(st.tuples(st.integers(0, 2 ** 21 - 1),
                              st.integers(0, 2 ** 21 - 1),
                              st.integers(0, 2 ** 21 - 1)),
                    min_size=1, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_bitwise_interleave(self, coords):
        expect = [sum((((i >> b) & 1) << (3 * b + 2))
                      | (((j >> b) & 1) << (3 * b + 1))
                      | (((k >> b) & 1) << (3 * b)) for b in range(21))
                  for i, j, k in coords]
        keys = morton_keys_3d(np.array(coords, dtype=np.int64))
        assert keys.tolist() == expect

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            morton_keys_3d(np.array([[-1, 0, 0]]))

    def test_locality(self):
        # adjacent cells differ less in key than distant cells (weakly).
        a = morton_keys_3d(np.array([[5, 5, 5]]))[0]
        b = morton_keys_3d(np.array([[5, 5, 6]]))[0]
        c = morton_keys_3d(np.array([[500, 500, 500]]))[0]
        assert abs(int(b) - int(a)) < abs(int(c) - int(a))


class TestSpatialHash:
    def test_cell_of(self):
        h = SpatialHash(np.zeros(3), 1.0)
        assert np.array_equal(h.cell_of([[0.5, 1.5, 2.5]]), [[0, 1, 2]])

    def test_box_keys_cover_box(self):
        h = SpatialHash(np.zeros(3), 1.0)
        keys = h.box_keys(np.array([0.1, 0.1, 0.1]), np.array([2.9, 0.9, 0.9]))
        assert keys.size == 3  # three cells along x

    def test_same_cell_same_key(self):
        h = SpatialHash(np.zeros(3), 2.0)
        k = morton_keys_3d(h.cell_of([[0.1, 0.1, 0.1], [1.9, 1.9, 1.9]]))
        assert k[0] == k[1]

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            SpatialHash(np.zeros(3), 0.0)
