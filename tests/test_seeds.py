import numpy as np

from modperf.seeds import derive, derive_array


def test_derive_array_matches_derive_elementwise():
    trees, heaps = np.arange(4)[:, None], np.array([0, 1, 2, 5, 1 << 40])
    got = derive_array(12345, trees, heaps)
    assert got.shape == (4, 5) and got.dtype == np.uint64
    for t in range(4):
        for j, h in enumerate(heaps.tolist()):
            assert int(got[t, j]) == derive(12345, t, h)
    # an array of seeds continues each derivation
    chained = derive_array(derive_array(7, trees), heaps)
    assert np.array_equal(chained, derive_array(7, trees, heaps))
    assert int(derive_array((1 << 64) - 1, 3)[0]) == derive((1 << 64) - 1, 3)
