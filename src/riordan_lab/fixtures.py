"""Reference data shipped with the package.

The JSON files under ``fixtures/`` hold the printed reference matrices the
test suite reproduces entry for entry, plus the reference rows of the
unit-scale expansion kept symbolic in the b-coefficients.  They are data,
not code, so they can be audited independently of the implementation.
"""
from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from .errors import BadArgument
from .riordan import TriMatrix, matrix_from_json_dict

MATRIX_NAMES = (
    "rna_matrix",
    "comp_matrix_geom",
    "narayana_matrix",
    "bcomp_one_plus_x",
    "bcomp_catalan",
    "half_comp_matrix",
    "b_triangle",
    "lucas_matrix",
    "fibonacci_matrix",
)


def _load_json(name: str) -> dict:
    path = resources.files("riordan_lab") / "fixtures" / (name + ".json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def load_matrix(name: str) -> TriMatrix:
    """One of the reference triangles, by name (see MATRIX_NAMES)."""
    if name not in MATRIX_NAMES:
        raise BadArgument("no reference matrix named %r" % (name,))
    return matrix_from_json_dict(_load_json(name))


def load_b1_rows() -> list[dict[tuple[int, ...], Fraction]]:
    """Rows 0..9 of the unit-scale expansion: each row maps a multiplicity
    tuple (m0, m1, ...) over the b-coefficients to its rational weight."""
    data = _load_json("b1_expansion")
    out: list[dict[tuple[int, ...], Fraction]] = []
    for row in data["rows"]:
        out.append({tuple(t["mults"]): Fraction(t["coeff"]) for t in row["terms"]})
    return out
