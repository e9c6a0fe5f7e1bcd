"""Output check: compare an op's results with values recorded at a reference
commit (reference.json, written by record_reference.py).

Each op yields one row per radius.  A row holds the checked fields and the
defect the op reports for its solve:

- report: per ladder radius, ``L``, ``lower_bound``, the chain rows,
  ``chain_ok`` and ``probability_sum``; the defect is the row's
  ``residual``, which must meet the solver's 1e-9 target.
- flow: the same fields apart from ``chain_ok``.  ``flow`` reports no
  residual; its exit status certifies the 1e-9 target (the Green solve
  raises SolverError above it), and the defect is the flow's reported
  ``conservation_defect``, the equation defect measured on the flow,
  floored like every residual the program reports (RESIDUAL_FLOOR): below
  it the defect says nothing about the rounding in g, L and lower_bound.
- green: ``value_at_center``; the defect is ``residual``, which must meet
  the 1e-9 target.

The relative tolerance comes from the defects, not from a tuned constant.
A defect of sup-norm r at each of the |B_R| vertices perturbs the unit
point source by at most |B_R| r in l1; the Green function scales like the
source to the power 1/(p-1), and the checked sums like g^max(1, sigma).
Reference and op each carry their own defect, so

    tol = (r_ref + r_op) * |B_R| * max(1, sigma) / (p - 1) + 64 * eps,

where the last term covers rounding in the sums.  Scalars compare
relatively; a chain row compares on the scale the program's own check uses,
max(1, |lower|, |upper|).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from p_potential.green import RESIDUAL_FLOOR  # noqa: E402

RESIDUAL_TARGET = 1e-9
ROUNDING = 64 * sys.float_info.epsilon


def extract(op) -> dict:
    """Read the op's result file into {str(R): row}."""
    with open(op.result_file, encoding="utf-8") as fh:
        payload = json.load(fh)
    if op.kind == "report":
        return {str(row["R"]): {
            "L": row["L"], "lower_bound": row["lower_bound"],
            "chain": row["chain"], "chain_ok": row["chain_ok"],
            "probability_sum": row["probability_sum"],
            "residual": row["residual"]} for row in payload["ladder"]}
    if op.kind == "flow":
        return {str(payload["R"]): {
            "L": payload["L"], "lower_bound": payload["lower_bound"],
            "chain": payload["chain"],
            "probability_sum": payload["probability_sum"],
            "residual": max(payload["conservation_defect"],
                            RESIDUAL_FLOOR)}}
    return {str(payload["R"]): {
        "value_at_center": payload["value_at_center"],
        "residual": payload["residual"]}}


def tolerance(ref_row: dict, row: dict, ball_size: int, p: float,
              sigma: float | None) -> float:
    amplification = max(1.0, sigma or 1.0) / (p - 1.0)
    return ((ref_row["residual"] + row["residual"]) * ball_size
            * amplification + ROUNDING)


def _close(value, ref, tol: float, scale: float) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= tol * scale)


def compare(op, rows: dict, reference: dict) -> list:
    """Return the mismatches (empty when the outputs pass)."""
    problems = []
    if set(rows) != set(reference["rows"]):
        return [f"radii {sorted(rows)} != reference {sorted(reference['rows'])}"]
    for R, ref_row in reference["rows"].items():
        row = rows[R]
        if op.kind != "flow" and not row["residual"] <= RESIDUAL_TARGET:
            problems.append(f"R={R}: residual {row['residual']!r} above "
                            f"{RESIDUAL_TARGET}")
        tol = tolerance(ref_row, row, reference["ball_size"][R], op.p,
                        op.sigma)
        for field, ref in ref_row.items():
            value = row[field]
            if field == "residual":
                continue
            if field == "chain":
                problems.extend(f"R={R}: {msg}"
                                for msg in _compare_chain(value, ref, tol))
            elif isinstance(ref, bool):
                if value is not ref:
                    problems.append(f"R={R}: {field} {value!r} != {ref!r}")
            elif not _close(value, ref, tol, abs(ref)):
                problems.append(f"R={R}: {field} {value!r} != {ref!r} "
                                f"(relative tolerance {tol:.2e})")
    return problems


def _compare_chain(rows: list, ref_rows: list, tol: float) -> list:
    if [r["name"] for r in rows] != [r["name"] for r in ref_rows]:
        return ["chain steps differ from the reference"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        if row["ok"] is not ref["ok"]:
            problems.append(f"chain {ref['name']!r}: ok {row['ok']!r}")
        scale = max(1.0, abs(ref["lower"]), abs(ref["upper"]))
        for side in ("lower", "upper"):
            if not _close(row[side], ref[side], tol, scale):
                problems.append(f"chain {ref['name']!r}: {side} "
                                f"{row[side]!r} != {ref[side]!r}")
    return problems
