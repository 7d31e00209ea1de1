"""The autouse ``cold_memos`` fixture finds the package's memos by itself."""

import gc
import weakref

from conftest import process_memos

from dpkmeans import core, engine, mechanism
from dpkmeans.engine import EngineConfig, Variant, run_baseline, run_edpdcs
from dpkmeans.evaluation import compare_variants
from dpkmeans.ingestion import synthetic_blobs
from dpkmeans.planner import PlannerInputs

TODAYS_MEMOS = {
    "dpkmeans.mechanism.stream_unit_noise": mechanism.stream_unit_noise,
    "dpkmeans.engine._bin_offsets": engine._bin_offsets,
    "dpkmeans.engine._pass_work": engine._pass_work,
    "dpkmeans.core._index_and_one": core._index_and_one,
    "dpkmeans.core._STORES": core._STORES,
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


def test_grid_and_direct_runs_fill_one_store_dropped_with_its_dataset():
    data = synthetic_blobs(300, 2, 2, seed=1)
    compare_variants(data, 2, [1.0], n_seeds=2, base_seed=0)
    inputs = PlannerInputs(n_rows=300, n_dims=2, k=2, epsilon_total=1.0)
    run_edpdcs(data, 2, inputs, config=EngineConfig(master_seed=9))
    run_baseline(data, 2, 1.0, EngineConfig(variant=Variant.RU_DPKM, master_seed=9))
    (store,) = core._STORES.values()
    assert store is core.dataset_store(data)
    # One canopy summary: the 300 rows are below the subsample, so no seed.
    kinds = sorted(key[0] for key in store.entries if key[0] != "pass")
    assert kinds == ["canopy"] + ["rows"] * 3
    assert ("rows", 2, 9) in store.entries
    assert any(key[0] == "pass" for key in store.entries)
    entry = weakref.ref(store)
    del data, store
    gc.collect()
    assert len(core._STORES) == 0 and entry() is None
