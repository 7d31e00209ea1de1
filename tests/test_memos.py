"""The autouse ``cold_memos`` fixture finds the package's memos by itself."""

import weakref

from conftest import process_memos

from dpkmeans import canopy, core, engine, mechanism
from dpkmeans.evaluation import compare_variants

TODAYS_MEMOS = {
    "dpkmeans.mechanism.stream_unit_noise": mechanism.stream_unit_noise,
    "dpkmeans.engine._random_row_indices": engine._random_row_indices,
    "dpkmeans.engine._bin_offsets": engine._bin_offsets,
    "dpkmeans.core._index_and_one": core._index_and_one,
    "dpkmeans.canopy._SUMMARIES": canopy._SUMMARIES,
    "dpkmeans.engine._MAP_STATES": engine._MAP_STATES,
}


def _sizes() -> dict[str, int]:
    return {
        name: len(memo)
        if isinstance(memo, weakref.WeakKeyDictionary)
        else memo.cache_info().currsize
        for name, memo in process_memos().items()
    }


def test_finds_todays_memos_under_their_defining_module():
    found = process_memos()
    assert sorted(found) == sorted(TODAYS_MEMOS)
    for name, memo in TODAYS_MEMOS.items():
        assert found.get(name) is memo, name


def test_a_grid_fills_every_memo(small_blobs):
    compare_variants(small_blobs, 3, [1.0], n_seeds=1)
    assert all(_sizes().values()), _sizes()


def test_the_next_test_starts_with_every_memo_empty(small_blobs):
    # Runs after the test above, which filled them on the same dataset.
    assert not any(_sizes().values()), _sizes()
