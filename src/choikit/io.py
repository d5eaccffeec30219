"""JSON encoding and decoding for matrices, certificates, and run reports.

Complex numbers are serialized as [re, im] pairs; floats rely on Python's
shortest round-trip decimal form, so parse(emit(M)) reproduces M exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from . import linalg
from .certificate import Certificate
from .decompose import DecompositionPair, SplitCandidate
from .uniqueness import FeasibilityReport


def complex_pair(value) -> list[float]:
    zc = complex(value)
    return [zc.real, zc.imag]


def _pairs(values) -> list:
    """[re, im] pairs of the entries of an array, read as Python complexes."""
    return [[v.real, v.imag] for v in np.asarray(values, dtype=np.complex128).reshape(-1).tolist()]


def matrix_to_json(m) -> dict:
    rows = np.asarray(m, dtype=np.complex128).tolist()
    return {"rows": [[[v.real, v.imag] for v in row] for row in rows]}


def matrix_from_json(obj) -> np.ndarray:
    """Parse {"rows": [[[re, im], ...], ...]} into a 2x2 or 4x4 matrix."""
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError("matrix JSON must be an object with a 'rows' key")
    rows = obj["rows"]
    if not isinstance(rows, list) or len(rows) not in (2, 4):
        raise ValueError("matrix must have 2 or 4 rows")
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"row {i} must have exactly {n} entries")
        for j, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not isinstance(pair[0], (int, float)) or isinstance(pair[0], bool)
                    or not isinstance(pair[1], (int, float)) or isinstance(pair[1], bool)):
                raise ValueError(f"entry ({i},{j}) must be a [re, im] pair of numbers")
            try:
                out.append(complex(float(pair[0]), float(pair[1])))
            except OverflowError:  # an integer beyond the float range
                raise ValueError(f"entry ({i},{j}) does not fit in a float") from None
    return linalg.as_matrix(np.array(out).reshape(n, n), n)


def parse_complex(text: str) -> complex:
    """Parse a complex literal using 'i' notation, e.g. '1+0i', '-0.3i', '2'."""
    cleaned = text.strip().replace(" ", "")
    if not cleaned:
        raise ValueError("empty complex literal")
    try:  # only a closing i is the imaginary unit: "inf" and "infinity" keep theirs
        value = complex(cleaned[:-1] + "j" if cleaned.endswith("i") else cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc
    if not math.isfinite(value.real) or not math.isfinite(value.imag):
        raise ValueError(f"complex literal {text!r} is not finite")
    return value


def _witness_to_json(witness) -> Any:
    if witness is None:
        return None
    if isinstance(witness, str):
        return {"kind": "condition", "name": witness}
    if isinstance(witness, tuple) and len(witness) == 2:
        vec, mat = witness
        return {"kind": "direction", "vector": _pairs(vec), "matrix": matrix_to_json(mat)}
    return {"kind": "vector", "value": _pairs(witness)}


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "verdict": cert.verdict,
        "margin": float(cert.margin),
        "detail": cert.detail,
        "witness": _witness_to_json(cert.witness),
    }


def candidate_to_json(cand: SplitCandidate) -> dict:
    return {
        "a1": float(cand.a1),
        "b1": float(cand.b1),
        "u1": float(cand.u1),
        "t1": complex_pair(cand.t1),
        "c": complex_pair(cand.c),
    }


def report_to_json(report: FeasibilityReport) -> dict:
    """The report's fields in their declared order, the candidates as candidate_to_json."""
    out = {field.name: getattr(report, field.name) for field in dataclasses.fields(report)}
    out["canonical"] = candidate_to_json(report.canonical)
    out["alternates"] = [{"candidate": candidate_to_json(cand), "distance": float(dist)}
                         for cand, dist in report.alternates]
    return out


def pair_to_json(pair: DecompositionPair) -> dict:
    return {
        "H1": matrix_to_json(pair.h1),
        "H2": matrix_to_json(pair.h2),
        "U1": matrix_to_json(pair.k1),
        "U2": matrix_to_json(pair.k2),
        "c": complex_pair(pair.c),
        "y1": complex_pair(pair.y1),
        "z1": complex_pair(pair.z1),
    }


def dumps_report(report: dict, pretty: bool = False) -> str:
    if pretty:
        return render_text(report)
    return json.dumps(report, sort_keys=True)


def _render_value(value, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if set(value.keys()) == {"rows"}:
            for row in value["rows"]:
                cells = ", ".join(f"{p[0]:+.12g}{p[1]:+.12g}i" for p in row)
                lines.append(f"{pad}[ {cells} ]")
            return
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}{key}:")
                _render_value(inner, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {inner}")
        return
    for item in value:  # a list: only dicts and lists recurse
        if isinstance(item, (dict, list)):
            _render_value(item, indent + 1, lines)
        else:
            lines.append(f"{pad}- {item}")


def render_text(report: dict) -> str:
    """Human-readable rendering derived from the JSON report dict."""
    lines: list[str] = []
    _render_value(report, 0, lines)
    return "\n".join(lines) + "\n"
