"""Correctness checks on the files one benchmark sample wrote.

Each check returns a list of problems; an empty list means the outputs
are correct. The values are recomputed from the CSVs themselves, so a
check fails when a file is truncated, edited or inconsistent.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import xml.etree.ElementTree as ET

LEARNING_CURVE_HEADER = [
    "trial", "bin_start", "cs_sum", "cs_avg", "invasions", "successful_defers",
]
ACTIONS_HEADER = [
    "trial", "bin_start", "player", "up", "down", "left", "right", "stay", "defer",
]
MATRIX_HEADER = ["trial", "R", "P", "S", "T", "fear", "greed", "classification"]


def sha256_files(out_dir: str, names: list[str]) -> dict[str, str]:
    digests = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def _rows(path: str, header: list[str], problems: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    name = os.path.basename(path)
    if not rows or rows[0] != header:
        problems.append(f"{name}: header is {rows[:1]}")
        return []
    body = rows[1:]
    for k, row in enumerate(body, start=2):
        if len(row) != len(header):
            problems.append(f"{name}: line {k} has {len(row)} fields")
            return []
    return body


def check_simulate(out_dir: str, config: dict, svgs: list[str]) -> list[str]:
    problems: list[str] = []
    trials, bin_size = config["trials"], config["bin"]
    bins = config["total_steps"] // bin_size
    players = config["players"]

    curve = _rows(os.path.join(out_dir, "learning_curve.csv"),
                  LEARNING_CURVE_HEADER, problems)
    if len(curve) != trials * bins:
        problems.append(
            f"learning_curve.csv: {len(curve)} rows, want {trials} x {bins}"
        )
    for row in curve:
        if float(row[3]) != int(row[2]) / bin_size:
            problems.append(f"learning_curve.csv: cs_avg != cs_sum / bin in {row}")
            break

    actions = _rows(os.path.join(out_dir, "actions.csv"), ACTIONS_HEADER, problems)
    if len(actions) != trials * bins * players:
        problems.append(
            f"actions.csv: {len(actions)} rows, want {trials} x {bins} x {players}"
        )

    for name in svgs:
        try:
            root = ET.parse(os.path.join(out_dir, name)).getroot()
        except ET.ParseError as exc:
            problems.append(f"{name}: not XML: {exc}")
            continue
        if not root.tag.endswith("svg"):
            problems.append(f"{name}: root element is {root.tag}")
    return problems


def check_analyze(out_dir: str, config: dict) -> list[str]:
    problems: list[str] = []
    body = _rows(os.path.join(out_dir, "matrix.csv"), MATRIX_HEADER, problems)
    trials = config["match_trials"]
    if len(body) != trials + 1 or (body and body[-1][0] != "aggregate"):
        problems.append(f"matrix.csv: want {trials} trial rows and an aggregate row")
        return problems
    for row in body:
        R, P, S, T, fear, greed = (float(v) for v in row[1:7])
        if fear != P - S or greed != T - R:
            problems.append(f"matrix.csv: fear/greed disagree with R/P/S/T in {row}")
    trial_rows, aggregate = body[:-1], body[-1]
    for col in range(1, 5):
        mean = sum(float(r[col]) for r in trial_rows) / trials
        if not math.isclose(float(aggregate[col]), mean, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(
                f"matrix.csv: aggregate {MATRIX_HEADER[col]} is {aggregate[col]}, "
                f"mean of trials is {mean!r}"
            )
    stag = sum(r[7] == "StagHunt" for r in trial_rows) / trials
    if float(aggregate[7]) != stag:
        problems.append(f"matrix.csv: stag hunt fraction {aggregate[7]}, want {stag}")
    return problems
