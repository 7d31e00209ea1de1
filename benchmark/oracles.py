"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``dpkmeans``.  Reports are plain dicts, as
``RunReport.to_dict()`` gives them or as ``comparison.json`` holds them.
Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

PRIVATE = ("EDPDCS", "RF_DPKM", "RU_DPKM")
#: Relative tolerance between a reported NICV and the recomputed one.
NICV_RTOL = 1e-9
#: Absolute slack on budget sums, scaled by max(1, epsilon).
LEDGER_TOL = 1e-12
#: Relative slack on one NICV exceeding its predecessor under exact Lloyd.
MONOTONE_RTOL = 1e-12
#: Planner defaults the benchmark relies on (README, ``PlannerInputs``).
RHO, MSE_THRESHOLD, T_CAP, RU_MAX_ITERS = 0.225, 0.01, 7, 10


def nicv_oracle(points: np.ndarray, centroids: np.ndarray) -> float:
    """Mean over rows of the squared distance to the nearest centroid.

    Loops over centroids so memory stays at one (n, d) difference and one
    (n,) running minimum, whatever k is.
    """
    best = np.full(points.shape[0], np.inf)
    for c in np.asarray(centroids, dtype=np.float64):
        diff = points - c
        np.minimum(best, np.einsum("ij,ij->i", diff, diff), out=best)
    return float(best.mean())


def min_max_normalise(raw: np.ndarray) -> np.ndarray:
    """Columns rescaled to [0, 1] by their observed range; constants to 0.5."""
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    span = hi - lo
    out = (raw - lo) / np.where(span > 0, span, 1.0)
    return np.where(span > 0, out, 0.5)


def planned_iterations(n: int, d: int, k: int, epsilon: float) -> int:
    """T from the closed-form minimal per-iteration budget (README formula)."""
    eps_m = math.sqrt(
        (2.0 / MSE_THRESHOLD) * k**3 * d * (1 + d) ** 2 * (1 + RHO**2) / n**2
    )
    if epsilon <= 2 * eps_m:
        return 2
    return max(2, min(T_CAP, math.floor(epsilon / eps_m)))


def final_centroids(report: dict) -> np.ndarray:
    """The released centroids: those after the report's last iteration."""
    return np.asarray(report["iterations"][-1]["centroids_after"], dtype=np.float64)


def check_nicv(points: np.ndarray, centroids: np.ndarray, report: dict) -> tuple[float, list[str]]:
    """Recompute NICV from the data and the released centroids."""
    value = nicv_oracle(points, centroids)
    if not math.isclose(value, report["nicv"], rel_tol=NICV_RTOL, abs_tol=0.0):
        return value, [f"nicv {report['nicv']!r} != recomputed {value!r}"]
    return value, []


def _charges(report: dict) -> list[float]:
    return [it["budget_charged"] for it in report["iterations"] if it["budget_charged"] is not None]


def check_ledger(report: dict) -> list[str]:
    """Budget spent equals epsilon, the RU halving sum, or 0 without privacy."""
    variant, eps, spent = report["variant"], report["epsilon"], report["budget_spent"]
    if variant == "NONPRIVATE":
        if spent != 0.0 or _charges(report):
            return [f"NONPRIVATE spent {spent!r} over {len(_charges(report))} charges"]
        return []
    if variant == "RU_DPKM":
        expected = math.fsum(eps / 2 ** (t + 1) for t in range(1, report["iterations_run"] + 1))
    else:
        expected = eps
    problems = []
    if abs(spent - expected) > LEDGER_TOL * max(1.0, eps):
        problems.append(f"{variant} budget_spent {spent!r} != {expected!r}")
    if abs(math.fsum(_charges(report)) - expected) > LEDGER_TOL * max(1.0, eps):
        problems.append(f"{variant} iteration charges sum to {math.fsum(_charges(report))!r}")
    return problems


def check_draws(report: dict) -> list[str]:
    """Every charged iteration draws k*(d+1) noise values; uncharged ones none."""
    per_iter = report["k"] * (report["n_dims"] + 1)
    problems = []
    for it in report["iterations"]:
        want = per_iter if it["budget_charged"] is not None else 0
        if it["noise_draws"] != want:
            problems.append(
                f"{report['variant']} iteration {it['iteration']}: "
                f"{it['noise_draws']} draws, expected {want}"
            )
    return problems


def check_plan(report: dict) -> list[str]:
    """The planned T and the iteration schedule match the closed form."""
    variant, eps = report["variant"], report["epsilon"]
    charges = _charges(report)
    if variant in ("EDPDCS", "RF_DPKM"):
        t = planned_iterations(report["n_rows"], report["n_dims"], report["k"], eps)
        problems = []
        if report["plan"]["iterations"] != t or report["iterations_run"] != t:
            problems.append(
                f"{variant} plan T {report['plan']['iterations']}, ran "
                f"{report['iterations_run']}, closed form gives {t}"
            )
        if len(charges) != t or any(
            not math.isclose(c, eps / t, rel_tol=1e-12) for c in charges
        ):
            problems.append(f"{variant} charges {charges!r} are not {t} x eps/{t}")
        return problems
    if variant == "RU_DPKM":
        want = [eps / 2 ** (t + 1) for t in range(1, report["iterations_run"] + 1)]
        if report["iterations_run"] > RU_MAX_ITERS or charges != want:
            return [f"RU_DPKM charges {charges!r} are not the halving schedule"]
    return []


def check_unit_cube(report: dict, centroids: np.ndarray) -> list[str]:
    """Private centroids lie in [0, 1]^d."""
    if report["variant"] in PRIVATE and (centroids.min() < 0.0 or centroids.max() > 1.0):
        return [f"{report['variant']} centroid outside the unit cube"]
    return []


def check_monotone(points: np.ndarray, report: dict) -> list[str]:
    """Exact Lloyd: NICV after each traced iteration never rises."""
    if report["variant"] != "NONPRIVATE":
        return []
    values = [nicv_oracle(points, np.asarray(it["centroids_after"])) for it in report["iterations"]]
    return [
        f"NONPRIVATE nicv rose from {a!r} to {b!r} at iteration {i + 1}"
        for i, (a, b) in enumerate(zip(values, values[1:]))
        if b > a * (1 + MONOTONE_RTOL)
    ]


def check_run(points: np.ndarray, report: dict, centroids: np.ndarray | None = None
              ) -> tuple[float, list[str]]:
    """All per-run checks; returns (recomputed NICV, problems)."""
    if centroids is None:
        centroids = final_centroids(report)
    value, problems = check_nicv(points, centroids, report)
    for check in (check_ledger, check_draws, check_plan):
        problems += check(report)
    problems += check_unit_cube(report, centroids)
    problems += check_monotone(points, report)
    return value, problems


def check_ingestion(raw: np.ndarray, rows_dropped: int, loaded_raw: np.ndarray,
                    loaded_dropped: int, normalised: np.ndarray) -> list[str]:
    """The program kept exactly the usable rows and normalised them to [0, 1]."""
    problems = []
    if loaded_dropped != rows_dropped:
        problems.append(f"dropped {loaded_dropped} rows, expected {rows_dropped}")
    if loaded_raw.shape != raw.shape or not np.array_equal(loaded_raw, raw):
        problems.append(f"loaded {loaded_raw.shape} rows differ from the {raw.shape} written")
        return problems
    spans = raw.max(axis=0) > raw.min(axis=0)
    if not (np.all(normalised[:, spans].min(axis=0) == 0.0)
            and np.all(normalised[:, spans].max(axis=0) == 1.0)):
        problems.append("a non-constant normalised column does not span [0, 1]")
    if not np.allclose(normalised, min_max_normalise(raw), rtol=0.0, atol=1e-12):
        problems.append("normalised data differs from min-max of the raw rows")
    return problems


def check_grid(summary: dict, csv_rows: list[dict], epsilons: list[float], n_seeds: int
               ) -> tuple[int, list[str]]:
    """A ``dpkmeans compare`` result: the runs present and the CSV cells agree.

    ``compare_variants`` drops a run that raises from its cell and writes a
    note instead, so every run missing from ``comparison.json`` is a failed
    run.  Returns (runs missing, problems).  The CSV must hold one row per
    non-empty cell whose seed count and mean NICV equal those recomputed
    from the runs in the JSON.
    """
    expected = [(v, e) for v in PRIVATE for e in epsilons] + [("NONPRIVATE", None)]
    runs: dict[tuple, list[float]] = {key: [] for key in expected}
    problems = []
    for r in summary["runs"]:
        key = (r["variant"], None if r["variant"] == "NONPRIVATE" else r["epsilon"])
        if key not in runs:
            problems.append(f"unexpected run {key}")
            continue
        runs[key].append(r["nicv"])
    missing = sum(
        max(0, (1 if v == "NONPRIVATE" else n_seeds) - len(runs[(v, e)])) for v, e in expected
    )
    cells = {(row["variant"], row["epsilon"]): row for row in csv_rows}
    if len(cells) != len(csv_rows):
        problems.append("duplicate cells in the CSV")
    for v, e in expected:
        values = runs[(v, e)]
        row = cells.pop((v, "" if e is None else repr(e)), None)
        if row is None:
            if values:
                problems.append(f"cell {v} eps={e} missing from the CSV")
            continue
        if int(row["n_seeds"]) != len(values) or float(row["mean_nicv"]) != statistics.fmean(values):
            problems.append(
                f"cell {v} eps={e}: CSV n_seeds {row['n_seeds']} mean {row['mean_nicv']}, "
                f"JSON runs give {len(values)} and {statistics.fmean(values)!r}"
            )
    problems += [f"unexpected CSV cell {key}" for key in cells]
    return missing, problems
