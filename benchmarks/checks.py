"""Output checks for the benchmark workloads.

Each check takes the CSV text one CLI call wrote and returns the number of
failed items.  An item is one (trial, decoder) row of `simulate` or one
load point of `sweep`; text that does not parse as the expected table fails
every item.
"""
from __future__ import annotations

import csv
import math

DECODERS = ("ordinary", "batched", "oracle")


def parse(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """(metadata, rows) of a CSV written by the `ncsa` CLI."""
    meta: dict[str, str] = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        elif line.strip():
            lines.append(line)
    if not lines:
        raise ValueError("no table")
    header, *body = list(csv.reader(lines))
    if any(len(row) != len(header) for row in body):
        raise ValueError("ragged table")
    return meta, [dict(zip(header, row)) for row in body]


def simulate_failures(text: str, trials: int, max_prediction_gap: float | None = None) -> int:
    """Failed (trial, decoder) rows of `simulate --decoder all`.

    A trial's three rows fail when its recovered counts break
    ordinary <= batched <= oracle <= users, or a fraction disagrees with its
    count.  With `max_prediction_gap`, every batched row fails when the mean
    batched fraction is further than that from the recursion's
    `predicted_fraction`.
    """
    items = trials * len(DECODERS)
    try:
        meta, rows = parse(text)
        users = int(meta["users"])
        by_trial: dict[int, dict[str, tuple[int, float]]] = {}
        for row in rows:
            by_trial.setdefault(int(row["trial"]), {})[row["decoder"]] = (
                int(row["recovered"]), float(row["fraction"]),
            )
        predicted = float(meta["predicted_fraction"]) if max_prediction_gap is not None else None
    except (ValueError, KeyError):
        return items
    if len(rows) != items or sorted(by_trial) != list(range(trials)):
        return items

    failed = 0
    batched = []
    for trial in range(trials):
        got = by_trial[trial]
        if set(got) != set(DECODERS):
            failed += len(DECODERS)
            continue
        counts = [got[name][0] for name in DECODERS]
        ordered = 0 <= counts[0] <= counts[1] <= counts[2] <= users
        consistent = all(abs(frac - n / users) <= 1e-12 for n, frac in got.values())
        if not (ordered and consistent):
            failed += len(DECODERS)
            continue
        batched.append(got["batched"][1])
    if predicted is not None and batched and abs(sum(batched) / len(batched) - predicted) > max_prediction_gap:
        failed += len(batched)
    return failed


def sweep_failures(text: str, points: int, solved_at_seed: frozenset[float]) -> int:
    """Failed load points of `sweep`.

    A point fails when its `rate_star` exceeds `upper_bound` by more than
    1e-9, or when the seed commit solved its load and it now reports an
    error or infeasibility.
    """
    try:
        _, rows = parse(text)
        parsed = [
            (
                float(row["lam"]),
                row["feasible"] == "true" and not row["error"],
                float(row["rate_star"]) if row["rate_star"] else None,
                float(row["upper_bound"]) if row["upper_bound"] else math.nan,
            )
            for row in rows
        ]
    except (ValueError, KeyError):
        return points
    if len(parsed) != points:
        return points
    failed = 0
    for lam, solved, rate_star, upper in parsed:
        if (rate_star is not None and rate_star > upper + 1e-9) or (lam in solved_at_seed and not solved):
            failed += 1
    return failed
