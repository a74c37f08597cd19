"""Machine-readable result records (JSON and CSV).

Records are flat dictionaries; certified interval values appear as
nested ``{"lo": ..., "hi": ...}`` objects in JSON and as ``<key>_lo`` /
``<key>_hi`` column pairs in CSV -- never collapsed to a midpoint.
Floats are rounded to 12 significant digits at emission so that
identical inputs yield byte-identical output and JSON reparses to equal
records.  Enclosure endpoints are rounded outwards (lo down, hi up), so
a printed interval still contains the value it certifies.
"""

from __future__ import annotations

import csv as _csv
import io
import json
import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal

from .enclosure import Enclosure

SIG_DIGITS = 12

# Documented, stable column sets per record kind.  Kinds without an
# entry fall back to the flattened keys in the order first seen.
CSV_COLUMNS = {
    "multiplier-estimate": ["m", "alpha", "prime_limit", "conv_limit",
                            "ratio", "reference", "flag"],
    "norm": ["space", "p", "r", "value", "value_lo", "value_hi"],
    "verify": ["suite", "passed", "detail"],
}


def round_sig(x: float) -> float:
    return float(f"{x:.{SIG_DIGITS}g}")


def _round_sig_outward(x: float, rounding: str) -> float:
    if x == 0.0 or not math.isfinite(x):
        return x
    d = Decimal(x)
    y = float(d.quantize(Decimal(1).scaleb(d.adjusted() - SIG_DIGITS + 1), rounding=rounding))
    return y if math.isfinite(y) else x


def normalize_value(v):
    if isinstance(v, Enclosure):
        return {"lo": _round_sig_outward(v.lo, ROUND_FLOOR),
                "hi": _round_sig_outward(v.hi, ROUND_CEILING)}
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, float):
        return round_sig(v)
    if isinstance(v, int):
        return v
    if isinstance(v, complex):
        return {"re": round_sig(v.real), "im": round_sig(v.imag)}
    if isinstance(v, dict):
        return {k: normalize_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [normalize_value(x) for x in v]
    return str(v)


def normalize_record(rec: dict) -> dict:
    return {k: normalize_value(v) for k, v in rec.items()}


def _flatten(rec: dict) -> dict:
    flat = {}
    for k, v in rec.items():
        if isinstance(v, dict) and set(v) == {"lo", "hi"}:
            flat[f"{k}_lo"] = v["lo"]
            flat[f"{k}_hi"] = v["hi"]
        elif isinstance(v, dict) and set(v) == {"re", "im"}:
            flat[f"{k}_re"] = v["re"]
            flat[f"{k}_im"] = v["im"]
        elif isinstance(v, (list, tuple)):
            flat[k] = ";".join(str(x) for x in v)
        else:
            flat[k] = v
    return flat


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.{SIG_DIGITS}g}"
    if v is None:
        return ""
    return str(v)


def to_json(records: list[dict]) -> str:
    payload = {"records": [normalize_record(r) for r in records]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _finite(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"{token} is not a finite JSON number")
    return x


def parse_json(text: str) -> list[dict]:
    """The records of a JSON report; ValueError unless they are objects.
    NaN, Infinity and numbers past the float64 range are refused, since
    they could not be re-emitted as strict JSON, and so is JSON nested
    too deeply to parse."""
    try:
        payload = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except RecursionError as ex:
        raise ValueError("JSON nested too deeply to parse") from ex
    records = payload.get("records") if isinstance(payload, dict) else None
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ValueError("expected an object with a 'records' array of objects")
    return records


def to_csv(records: list[dict], kind: str | None = None) -> str:
    flats = [_flatten(normalize_record(r)) for r in records]
    if kind in CSV_COLUMNS:
        columns = CSV_COLUMNS[kind]
    else:
        seen = []
        for f in flats:
            for k in f:
                if k not in seen:
                    seen.append(k)
        columns = seen
    out = io.StringIO()
    writer = _csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for f in flats:
        writer.writerow([_format_cell(f.get(c)) for c in columns])
    return out.getvalue()


def emit_report(records: list[dict], format: str, kind: str | None = None) -> str:
    """Render records as 'json' or 'csv' text."""
    if format == "json":
        return to_json(records)
    if format == "csv":
        return to_csv(records, kind=kind)
    raise ValueError(f"unknown report format {format!r}")
