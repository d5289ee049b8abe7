"""Correctness gate: compare outputs with the stored reference, column by column.

Tolerances, by column:

* packet densities (any column named ``density*`` or ``*_density_*``):
  absolute 1e-6, the quadrature's own refinement tolerance;
* Table 1 ``kmax_a``: ``*`` cells exactly, numbers within tol_ka = 1e-8;
* ``identity_plus`` / ``identity_minus`` (symmetric triple): absolute 1e-12;
* ``identity_residual`` (relativistic variational identity): absolute 1e-8;
* every other number: relative 1e-8, i.e. equal to the CSV's nine
  significant digits up to a rounding of the last one;
* text cells, column names and provenance lines: exactly.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(variant: int) -> Path:
    return REFERENCE_DIR / f"variant{variant}.json.gz"


def load_reference(variant: int, workload: str) -> dict:
    """{item: {file name: text}} stored for one variant and workload."""
    with gzip.open(reference_path(variant), "rt", encoding="utf-8") as f:
        return json.load(f)[workload]


def tolerance(column: str) -> tuple[str, float]:
    """('abs' | 'rel', bound) for a numeric column."""
    if "density" in column:
        return "abs", 1e-6
    if column == "kmax_a":
        return "abs", 1e-8
    if column in ("identity_plus", "identity_minus"):
        return "abs", 1e-12
    if column == "identity_residual":
        return "abs", 1e-8
    return "rel", 1e-8


def parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_output(name: str, text: str) -> tuple[list, list, list]:
    """(provenance, columns, rows) of an emitted CSV or JSON mirror."""
    if name.endswith(".json"):
        payload = json.loads(text)
        provenance = sorted(payload["provenance"].items())
        return provenance, payload["columns"], payload["rows"]
    lines = text.splitlines()
    provenance = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    columns = body[0].split(",")
    rows = [[parse_cell(cell) for cell in line.split(",")] for line in body[1:]]
    return provenance, columns, rows


def _deviation(column: str, got, want) -> tuple[float, bool]:
    """(deviation, within tolerance) of one cell."""
    if isinstance(got, str) or isinstance(want, str):
        return (0.0, True) if got == want else (math.inf, False)
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0, True
    if math.isnan(got) or math.isnan(want):
        return math.inf, False
    kind, bound = tolerance(column)
    dev = abs(got - want)
    if kind == "rel":
        dev /= max(abs(got), abs(want))
    return dev, dev <= bound


def compare(name: str, text: str, ref_text: str) -> tuple[bool, dict]:
    """(passed, {column: largest deviation}) of one output file."""
    try:
        prov, columns, rows = parse_output(name, text)
    except (ValueError, KeyError, IndexError):
        return False, {"<format>": math.inf}
    ref_prov, ref_columns, ref_rows = parse_output(name, ref_text)
    if prov != ref_prov:
        return False, {"<provenance>": math.inf}
    if columns != ref_columns or len(rows) != len(ref_rows):
        return False, {"<shape>": math.inf}
    worst: dict[str, float] = {}
    passed = True
    for row, ref_row in zip(rows, ref_rows):
        if len(row) != len(ref_row):
            return False, {"<shape>": math.inf}
        for column, got, want in zip(columns, row, ref_row):
            dev, ok = _deviation(column, got, want)
            passed &= ok
            worst[column] = max(worst.get(column, 0.0), dev)
    return passed, worst


class Gate:
    """Counts failed work items and keeps the largest deviation per column."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.deviation: dict[str, float] = {}
        self.identical: dict[str, bool] = {}   # output file -> byte-identical every time
        self.errors: list[str] = []
        self._verdicts: dict[tuple, bool] = {}

    def item(self, item: str, error: str | None, outputs: dict, read, count: int = 1) -> bool:
        """Score ``count`` runs of one work item with the same outcome.

        ``outputs`` maps file name to a content key that ``read`` turns into
        text.  Returns True when the item passed."""
        self.attempted += count
        ok = error is None
        if error is not None:
            self._note(f"{item}: {error}")
        expected = self.reference.get(item)
        if ok and (expected is None or set(outputs) != set(expected)):
            self._note(f"{item}: outputs {sorted(outputs)} differ from the reference "
                       f"{sorted(expected or {})}")
            ok = False
        if ok:
            for name, key in sorted(outputs.items()):
                ok &= self._file(item, name, key, read)
        if not ok:
            self.failed += count
        return ok

    def _file(self, item: str, name: str, key, read) -> bool:
        label = f"{item}/{name}"
        if (label, key) not in self._verdicts:
            text = read(key)
            ref_text = self.reference[item][name]
            passed, worst = compare(name, text, ref_text)
            table = name.rsplit(".", 1)[0]
            for column, dev in worst.items():
                full = f"{table}.{column}"
                self.deviation[full] = max(self.deviation.get(full, 0.0), dev)
            self.identical[label] = self.identical.get(label, True) and text == ref_text
            if not passed:
                self._note(f"{label}: outside tolerance")
            self._verdicts[(label, key)] = passed
        return self._verdicts[(label, key)]

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def report(self) -> list[str]:
        """Human-readable lines: byte-identical count and largest deviations."""
        same = sum(self.identical.values())
        lines = [f"check: {same} of {len(self.identical)} output files byte-identical "
                 f"to the reference"]
        for column in sorted(self.deviation):
            kind, bound = tolerance(column.rsplit(".", 1)[1])
            lines.append(f"check: max deviation {column} = {self.deviation[column]:.3g} "
                         f"({kind} tol {bound:g} on numbers, text exact)")
        lines += [f"check: FAILED {message}" for message in self.errors]
        return lines
