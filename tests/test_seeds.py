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


def test_memoised_string_parts_equal_uncached_hash():
    from modperf import knowledge_models, seeds

    tags = ["bootstrap", "split", "cv", "final", "perf", "model", "", "é"]
    tags += knowledge_models.LEVELS
    for _ in range(2):  # the second round reads the cache
        for tag in tags:
            assert seeds._string_part(tag) == seeds._part_to_int(tag)
            assert derive(99, tag, 3) == seeds._splitmix64(
                seeds._splitmix64(99 ^ seeds._part_to_int(tag)) ^ 3
            )
    assert seeds._string_part.cache_info().hits >= len(tags)
