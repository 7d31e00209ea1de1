"""Shared fixtures: synthetic datasets shaped like the reference corpora."""

import importlib
import pkgutil
import weakref

import pytest

import dpkmeans
from dpkmeans.ingestion import synthetic_blobs

# Two-cluster data with the reference shape (N=748, d=4) and a size split
# of roughly 458/290, i.e. a relative cluster-size spread near 0.225.
BLOOD_SHAPE = dict(n_rows=748, n_dims=4, n_centers=2, seed=11)
BLOOD_WEIGHTS = [0.6122, 0.3878]

# Five-cluster data with the larger reference shape (N=48842, d=6).
ADULT_SHAPE = dict(n_rows=48842, n_dims=6, n_centers=5, seed=17)


def process_memos() -> dict[str, object]:
    """Every process-wide memo of the ``dpkmeans`` modules, by dotted name.

    A memo is a module-level function with ``cache_clear`` (an
    ``lru_cache``) or a module-level ``weakref.WeakKeyDictionary``.  Each is
    named after the module that defines it, not one that imports it.
    """
    memos: dict[str, object] = {}
    for info in pkgutil.iter_modules(dpkmeans.__path__, "dpkmeans."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, weakref.WeakKeyDictionary):
                memos[f"{info.name}.{name}"] = value
            elif callable(getattr(value, "cache_clear", None)):
                memos[f"{value.__module__}.{value.__qualname__}"] = value
    return memos


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with the process-wide memos empty.

    The dataset fixtures are session-scoped, so without this a test that
    counts memo hits or labelling passes would see what earlier tests left.
    """
    for memo in process_memos().values():
        if isinstance(memo, weakref.WeakKeyDictionary):
            memo.clear()
        else:
            memo.cache_clear()


@pytest.fixture(scope="session")
def blood_like():
    return synthetic_blobs(weights=BLOOD_WEIGHTS, **BLOOD_SHAPE)


@pytest.fixture(scope="session")
def adult_like():
    return synthetic_blobs(**ADULT_SHAPE)


@pytest.fixture(scope="session")
def small_blobs():
    return synthetic_blobs(400, 3, 3, seed=5)


# ---------------------------------------------------------------------------
# Acceptance-criteria verdict reporting
# ---------------------------------------------------------------------------

VERDICTS: list[str] = []


@pytest.fixture
def criterion():
    """Context manager recording one PASS/FAIL line per acceptance criterion."""
    from contextlib import contextmanager

    @contextmanager
    def check(number, label):
        try:
            yield
        except BaseException:
            line = f"[FAIL] criterion {number}: {label}"
            VERDICTS.append(line)
            print(line)
            raise
        else:
            line = f"[PASS] criterion {number}: {label}"
            VERDICTS.append(line)
            print(line)

    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(VERDICTS):
            terminalreporter.write_line(line)
