"""Seeded writers for raw CSVs in the UCI Blood Transfusion and Adult layouts.

The real files are not part of the repository, so the benchmark clusters
generated files with the same column layout, value ranges and missing-value
tokens.  Each writer takes the workload seed and returns a
:class:`GeneratedCsv` that records what the program should see after
ingestion: the raw feature matrix of the usable rows and the number of rows
that carry a ``?`` in a feature column (the rows ``load_csv`` must drop).

Every numeric column is clipped to the range the real file has, and a fixed
number of rows is set to each end of it.  That pins the observed min and
max, so min-max normalisation uses the same ranges for every seed, and the
few extreme rows, which weigh heavily in NICV, are as many for every seed.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

BLOOD_USABLE_ROWS = 748
#: Seed of the one donor population every blood file holds.
BLOOD_POPULATION_SEED = 20190208
#: Rows with ``?`` in a feature column; ingestion drops them.
BLOOD_MISSING_FEATURE_ROWS = 6
#: Usable rows whose ``?`` sits in the (ignored) label column; kept.
BLOOD_MISSING_LABEL_ROWS = 3
BLOOD_HEADER = [
    "Recency (months)",
    "Frequency (times)",
    "Monetary (c.c. blood)",
    "Time (months)",
    "whether he/she donated blood in March 2007",
]

ADULT_ROWS = 48_842
#: Seed of the one population every Adult file holds.
ADULT_POPULATION_SEED = 19960501
#: Share of rows that get ``?`` in one numeric (feature) column.
ADULT_MISSING_FEATURE_SHARE = 0.004

_WORKCLASS = ["Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
              "Local-gov", "State-gov", "Without-pay", "Never-worked"]
_EDUCATION = ["Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th", "11th",
              "12th", "HS-grad", "Some-college", "Assoc-voc", "Assoc-acdm",
              "Bachelors", "Masters", "Prof-school", "Doctorate"]
_MARITAL = ["Married-civ-spouse", "Never-married", "Divorced", "Separated",
            "Widowed", "Married-spouse-absent", "Married-AF-spouse"]
_OCCUPATION = ["Tech-support", "Craft-repair", "Other-service", "Sales",
               "Exec-managerial", "Prof-specialty", "Handlers-cleaners",
               "Machine-op-inspct", "Adm-clerical", "Farming-fishing",
               "Transport-moving", "Priv-house-serv", "Protective-serv",
               "Armed-Forces"]
_RELATIONSHIP = ["Husband", "Not-in-family", "Own-child", "Unmarried", "Wife",
                 "Other-relative"]
_RACE = ["White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other"]
_COUNTRY = ["United-States", "Mexico", "Philippines", "Germany", "Canada",
            "India", "England", "China", "Cuba", "Jamaica"]


@dataclass(frozen=True)
class GeneratedCsv:
    """A written CSV plus what ingestion must make of it.

    Attributes:
        path: Where the file was written.
        features: Raw feature values of the usable rows, in file order.
        rows_dropped: Rows with ``?`` in a feature column.
    """

    path: str
    features: np.ndarray
    rows_dropped: int


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _pinned(rng: np.random.Generator, body: np.ndarray, lo: float, hi: float,
            ends: int) -> np.ndarray:
    """``body`` clipped to [lo, hi], with ``ends`` random rows set to each end."""
    out = np.clip(body.astype(np.float64), lo, hi)
    picked = rng.choice(out.shape[0], 2 * ends, replace=False)
    out[picked[:ends]] = lo
    out[picked[ends:]] = hi
    return out


def blood_features(seed: int) -> np.ndarray:
    """Raw (recency, frequency, monetary, time) rows shaped like the donor file.

    Two fixed donor profiles, mixed about 62/38: occasional donors who
    gave a few times long ago, and regular donors who gave often and
    recently.  Monetary is 250 c.c. per donation, as in the real file.
    """
    n_rows = BLOOD_USABLE_ROWS
    rng = _rng(seed)
    regular = rng.random(n_rows) < 0.38
    recency_body = np.where(regular, rng.gamma(1.2, 2.0, n_rows), 2.0 + rng.gamma(2.0, 6.0, n_rows))
    frequency_body = np.where(regular, 4 + rng.geometric(0.12, n_rows), rng.geometric(0.35, n_rows))
    recency = np.rint(_pinned(rng, recency_body, 0, 74, 2))
    frequency = np.rint(_pinned(rng, frequency_body, 1, 50, 2))
    monetary = 250.0 * frequency
    gap = np.where(regular, rng.gamma(3.0, 1.3, n_rows), rng.gamma(2.0, 3.0, n_rows))
    time = np.rint(_pinned(rng, recency + frequency * gap, 2, 98, 2))
    return np.column_stack([recency, frequency, monetary, time])


def write_blood_csv(path: str, seed: int) -> GeneratedCsv:
    """Write a blood-transfusion-layout CSV with a header and ``?`` rows.

    The :data:`BLOOD_USABLE_ROWS` usable rows are one fixed donor
    population, in one fixed order, for every seed: the paper's experiment
    varies the noise seeds over one real file, and with 748 rows the canopy
    initialisation (which reads rows in file order) would otherwise make
    the grid's mean NICV depend on the draw of the file more than on the
    program.  The seed draws the labels (a few of them ``?``, which the
    preset ignores) and :data:`BLOOD_MISSING_FEATURE_ROWS` extra rows, each
    a copy of a donor row with ``?`` in one feature column, placed at seeded
    positions.
    """
    features = blood_features(BLOOD_POPULATION_SEED)
    rng = _rng(seed)
    extra = features[rng.choice(BLOOD_USABLE_ROWS, BLOOD_MISSING_FEATURE_ROWS)]
    total = BLOOD_USABLE_ROWS + BLOOD_MISSING_FEATURE_ROWS
    missing = np.zeros(total, dtype=bool)
    missing[rng.choice(total, BLOOD_MISSING_FEATURE_ROWS, replace=False)] = True
    cells = np.empty((total, features.shape[1]), dtype=object)
    cells[~missing] = features.astype(np.int64).astype(str)
    cells[missing] = extra.astype(np.int64).astype(str)
    for row in np.flatnonzero(missing):
        cells[row, rng.integers(features.shape[1])] = "?"
    labels = (rng.random(total) < 0.24).astype(int).astype(str).astype(object)
    labels[rng.choice(np.flatnonzero(~missing), BLOOD_MISSING_LABEL_ROWS, replace=False)] = "?"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BLOOD_HEADER)
        for row, label in zip(cells, labels):
            writer.writerow([*row, label])
    return GeneratedCsv(path, features, BLOOD_MISSING_FEATURE_ROWS)


def adult_features(seed: int) -> np.ndarray:
    """Raw (age, fnlwgt, education_num, capital_gain, capital_loss, hours) rows.

    Rows come from five fixed profiles (mean age, mean education, mean
    weekly hours, share with capital gains): students, school-leavers in
    full-time work, graduates, retirees and investors.  ``fnlwgt`` is a
    census weight, drawn independently of the profile.
    """
    profiles = np.array([
        # share, age, education_num, hours, gain share
        [0.18, 22.0, 9.5, 24.0, 0.01],
        [0.32, 38.0, 9.0, 42.0, 0.05],
        [0.26, 43.0, 13.5, 48.0, 0.08],
        [0.14, 64.0, 9.5, 22.0, 0.10],
        [0.10, 50.0, 12.0, 45.0, 0.60],
    ])
    n_rows = ADULT_ROWS
    rng = _rng(seed)
    who = rng.choice(len(profiles), n_rows, p=profiles[:, 0])
    mean_age, mean_edu, mean_hours, gain_share = profiles[who, 1:].T
    age = np.floor(_pinned(rng, rng.normal(mean_age, 6.0), 17, 90, 50))
    fnlwgt = np.rint(_pinned(rng, rng.lognormal(12.0, 0.55, n_rows), 12285, 1490400, 20))
    education_num = np.rint(_pinned(rng, rng.normal(mean_edu, 1.5), 1, 16, 50))
    gain_body = np.where(rng.random(n_rows) < gain_share, rng.lognormal(8.5, 1.0, n_rows), 0.0)
    capital_gain = np.rint(_pinned(rng, gain_body, 0, 99999, 100))
    loss_body = np.where(rng.random(n_rows) < 0.047, rng.normal(1870, 360, n_rows), 0.0)
    capital_loss = np.rint(_pinned(rng, loss_body, 0, 4356, 20))
    hours = np.rint(_pinned(rng, rng.normal(mean_hours, 7.0), 1, 99, 50))
    return np.column_stack([age, fnlwgt, education_num, capital_gain, capital_loss, hours])


def write_adult_csv(path: str, seed: int) -> GeneratedCsv:
    """Write an Adult-layout CSV: 15 columns, no header, ``, `` separators.

    The numeric columns hold one fixed population, drawn from
    :data:`ADULT_POPULATION_SEED`, for every seed, for the reason given in
    :func:`write_blood_csv`.  The seed draws the categorical
    columns, with ``?`` at about the real file's rates (workclass,
    occupation, native-country), which the preset ignores, and picks about
    :data:`ADULT_MISSING_FEATURE_SHARE` of rows to get ``?`` in one numeric
    feature column; ingestion must drop exactly those.
    """
    n_rows = ADULT_ROWS
    raw = adult_features(ADULT_POPULATION_SEED)
    rng = _rng(seed)
    cells = raw.astype(np.int64).astype(str).astype(object)
    missing_rows = rng.random(n_rows) < ADULT_MISSING_FEATURE_SHARE
    for row in np.flatnonzero(missing_rows):
        cells[row, rng.integers(raw.shape[1])] = "?"

    def pick(options: list[str], missing_share: float = 0.0) -> np.ndarray:
        out = np.asarray(options, dtype=object)[rng.integers(len(options), size=n_rows)]
        out[rng.random(n_rows) < missing_share] = "?"
        return out

    workclass = pick(_WORKCLASS, 0.056)
    education = np.asarray(_EDUCATION, dtype=object)[raw[:, 2].astype(int) - 1]
    marital = pick(_MARITAL)
    occupation = pick(_OCCUPATION, 0.057)
    relationship = pick(_RELATIONSHIP)
    race = pick(_RACE)
    sex = pick(["Male", "Female"])
    country = pick(_COUNTRY, 0.018)
    income = pick(["<=50K", ">50K"])
    with open(path, "w", newline="") as fh:
        for i in range(n_rows):
            age, fnlwgt, edu_num, gain, loss, hours = cells[i]
            fh.write(", ".join((
                age, workclass[i], fnlwgt, education[i], edu_num, marital[i],
                occupation[i], relationship[i], race[i], sex[i], gain, loss,
                hours, country[i], income[i],
            )) + "\n")
    return GeneratedCsv(path, raw[~missing_rows], int(missing_rows.sum()))


WRITERS = {"blood": write_blood_csv, "adult": write_adult_csv}


def _sidecar(path: str) -> str:
    return os.path.splitext(path)[0] + ".npz"


def generate(kind: str, path: str, seed: int) -> GeneratedCsv:
    """Write a ``kind`` CSV to ``path`` in a child process; load what it records.

    The writers hold the whole file as Python strings at once (about 45 MB
    for the Adult layout).  Writing in a child keeps that out of the peak
    resident memory of the process that measures the program.  The child
    saves the usable rows' features and the dropped-row count beside the CSV.
    """
    subprocess.run([sys.executable, os.path.abspath(__file__), kind, path, str(seed)], check=True)
    with np.load(_sidecar(path)) as saved:
        return GeneratedCsv(path, saved["features"], int(saved["rows_dropped"]))


def main(argv: list[str]) -> None:
    """``python3 generators.py {blood|adult} PATH SEED``: write one input."""
    kind, path, seed = argv
    written = WRITERS[kind](path, int(seed))
    np.savez(_sidecar(path), features=written.features, rows_dropped=written.rows_dropped)


if __name__ == "__main__":
    main(sys.argv[1:])
