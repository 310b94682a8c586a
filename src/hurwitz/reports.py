"""Report assembly, serialization, and result caching for the CLI.

Reports are plain dicts with a fixed construction order and a
``schema_version`` field; JSON output is byte-deterministic given the query,
seed, and limits.  CSV is available for tabular bodies (anything carrying
``rows``), text is a readable summary.

The cache maps a content hash of (schema version, package version, package
sources, command, query, seed, limits, format) to the exact serialized
payload, so cache hits are byte-identical to recomputation by construction
and a code change never serves an old result.  Each entry carries the
payload's sha256, checked on read; a mismatch is a miss.  Writes go through
a temporary file and an atomic rename.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path

from . import __version__
from .class_metrics import DEFAULT_SEARCH_DEPTH, ClassMetrics, MinWordResult, compute_class_metrics, stability_bound
from .constructions import ClaimReport
from .orbits import DEFAULT_LIMITS, FiberSpec, ScanRow, SearchLimits, count_orbits, stable_length_scan
from .perms import CycleType, Perm, all_cycle_types, format_cycle_type, validate_cycle_type
from .words import Factorization, TypeVector

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Per-invocation knobs; only seed and limits influence report content."""

    limits: SearchLimits = DEFAULT_LIMITS
    cache_dir: str | None = None
    output_format: str = "json"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output_format!r}")


# -- exit status -----------------------------------------------------------------

def exit_code(decided: list[bool], falsified: bool = False) -> int:
    """The exit status of every command, from whether each of its rows was
    decided: 1 when a falsification was found, 2 when a limit left every row
    open, 0 otherwise (also for a report with no rows)."""
    if falsified:
        return 1
    return 2 if decided and not any(decided) else 0


# -- serialization helpers -----------------------------------------------------

def word_to_list(word: Factorization) -> list[str]:
    return [str(f) for f in word.factors]


def moves_to_list(moves) -> list[str] | None:
    if moves is None:
        return None
    return [str(m) for m in moves]


def make_report(command: str, query: dict, cfg: RunConfig, body: dict) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "query": query,
        "seed": cfg.seed,
        "limits": {"max_states": cfg.limits.max_states, "max_fiber": cfg.limits.max_fiber},
    }
    report.update(body)
    return report


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


def to_csv(report: dict) -> str:
    rows = report.get("rows")
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], dict):
        raise ValueError("this report has no tabular rows; use --format json")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue()


def _text_value(value) -> str:
    """A list's items apart by spaces; the words of a list of words by `` | ``."""
    if isinstance(value, list):
        sep = " | " if value and isinstance(value[0], list) else " "
        return sep.join(map(_text_value, value))
    return str(value)


def to_text(report: dict) -> str:
    lines = []
    rows = None
    for key, value in report.items():
        if key == "rows" and isinstance(value, list):
            rows = value
            continue
        if isinstance(value, dict):
            for k2, v2 in value.items():
                lines.append(f"{key}.{k2}: {_text_value(v2)}")
        else:
            lines.append(f"{key}: {_text_value(value)}")
    if rows is not None:
        for row in rows:
            lines.append("  " + "  ".join(f"{k}={_text_value(v)}" for k, v in row.items()))
    return "\n".join(lines) + "\n"


def emit(report: dict, cfg: RunConfig) -> str:
    if cfg.output_format == "json":
        return to_json(report)
    if cfg.output_format == "csv":
        return to_csv(report)
    return to_text(report)


# -- caching ---------------------------------------------------------------------

@functools.cache
def source_digest() -> str:
    """sha256 over the package's ``*.py`` sources, read once per process on
    first use (not at import)."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_key(command: str, query: dict, cfg: RunConfig) -> str:
    material = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "source": source_digest(),
        "command": command,
        "query": query,
        "seed": cfg.seed,
        "limits": [cfg.limits.max_states, cfg.limits.max_fiber],
        "format": cfg.output_format,
    }, sort_keys=True)
    return _sha256(material)


def cache_get(cfg: RunConfig, key: str) -> tuple[str, int] | None:
    if cfg.cache_dir is None:
        return None
    path = Path(cfg.cache_dir) / f"{key}.json"
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        payload = entry["payload"]
        if _sha256(payload) != entry["sha256"]:
            return None
        return payload, int(entry["exit_code"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def cache_put(cfg: RunConfig, key: str, payload: str, exit_code: int) -> None:
    if cfg.cache_dir is None:
        return
    directory = Path(cfg.cache_dir)  # made by the CLI before the command ran
    data = json.dumps({"exit_code": exit_code, "payload": payload, "sha256": _sha256(payload)})
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(tmp, directory / f"{key}.json")
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- class info -------------------------------------------------------------------

def _min_word_value(result: MinWordResult | None, not_applicable: str | None):
    if not_applicable is not None:
        return f"not applicable ({not_applicable})"
    assert result is not None
    if result.known:
        return result.length
    return f"unknown (limit {result.limit} reached)"


def class_info_body(metrics: ClassMetrics) -> dict:
    even = metrics.parity == "even"
    body = {
        "d": metrics.degree,
        "cycle_type": list(metrics.cycle_type),
        "n_C": metrics.order,
        "k_C": metrics.size,
        "f_C": metrics.fixed_points,
        "parity": metrics.parity,
        "generates_full_group": metrics.generates_full,
        "m_C": _min_word_value(metrics.min_word, "even class" if even else None),
        "m_C_constrained": _min_word_value(
            metrics.min_word_fixing,
            "even class" if even else (
                None if metrics.min_word_fixing is not None else "f_C < 2 or degree < 4")),
    }
    try:
        body["N_C_bound"] = stability_bound(metrics)
    except ValueError as exc:
        body["N_C_bound"] = f"not applicable ({exc})"
    witness = None
    if metrics.min_word_fixing is not None and metrics.min_word_fixing.known:
        witness = metrics.min_word_fixing.witness
    elif metrics.min_word is not None and metrics.min_word.known:
        witness = metrics.min_word.witness
    body["witness"] = [str(p) for p in witness] if witness is not None else None
    return body


# -- scans -----------------------------------------------------------------------

def scan_rows_to_dicts(rows: list[ScanRow]) -> list[dict]:
    return [{
        "n": r.n,
        "fiber_size": r.fiber_size,
        "orbits": r.orbit_count,
        "complete": r.complete,
    } for r in rows]


# -- claim reports -----------------------------------------------------------------

def claim_report_body(report: ClaimReport) -> dict:
    rows = [{
        "check": row.name,
        "expected": row.expected,
        "status": row.status,
        "certificate_moves": len(row.moves) if row.moves is not None else None,
        "detail": row.detail,
        "certificate": moves_to_list(row.moves),
    } for row in report.rows]
    return {
        "claim": report.claim,
        "summary": report.summary,
        "falsified": report.falsified,
        "complete": report.complete,
        "rows": rows,
    }


# -- component counting --------------------------------------------------------------

@dataclass(frozen=True)
class ComponentQuery:
    """How to count irreducible pieces of the space of degree-d coverings with
    b branch points: words of length b with identity product, grouped by move
    orbits, optionally quotiented by simultaneous conjugation, optionally
    restricted to transitive or full-symmetric monodromy."""

    degree: int
    length: int
    type_vector: TypeVector | None = None
    galois_full: bool = False
    transitive_only: bool = True
    conjugation_quotient: bool = True

    def __post_init__(self) -> None:
        if self.degree < 2 or self.length < 1:
            raise ValueError("need degree >= 2 and length >= 1")
        if self.type_vector is not None:
            self.type_vector.check_degree(self.degree)
            if self.type_vector.total() != self.length:
                raise ValueError(
                    f"type vector totals {self.type_vector.total()}, expected length {self.length}")


def _all_type_vectors(degree: int, length: int) -> list[TypeVector]:
    classes = [ct for ct in all_cycle_types(degree) if ct != (1,) * degree]
    out = []
    for combo in combinations_with_replacement(classes, length):
        counts: dict[CycleType, int] = {}
        for ct in combo:
            counts[ct] = counts.get(ct, 0) + 1
        out.append(TypeVector.from_counts(counts))
    return sorted(out, key=str)


def count_components(query: ComponentQuery, limits: SearchLimits) -> dict:
    """Per-type component counts plus totals.

    With ``galois_full`` the count is of move orbits with full symmetric
    monodromy (no conjugation quotient unless asked); otherwise the default
    query quotients by conjugation, matching components of the full covering
    space.
    """
    if query.type_vector is not None:
        types = [query.type_vector]
    else:
        types = _all_type_vectors(query.degree, query.length)
    constraint = ("full_group" if query.galois_full
                  else "transitive" if query.transitive_only else "none")
    ident = Perm.identity(query.degree)
    rows = []
    for tv in types:
        spec = FiberSpec(query.degree, tv, ident, constraint, query.conjugation_quotient)
        counted = count_orbits(spec, limits)
        rows.append({
            "type": str(tv),
            "fiber_size": counted.fiber_size,
            "components": counted.orbit_count,
            "complete": counted.complete,
        })
    counts = [row["components"] for row in rows if row["complete"]]
    body = {
        "convention": {
            "product": "identity",
            "constraint": constraint,
            "conjugation_quotient": query.conjugation_quotient,
        },
        "total_components": sum(counts) if counts else None,
        "all_rows_unknown": not counts,
        "rows": rows,
    }
    return body


# -- stability report ----------------------------------------------------------------

#: The word lengths n that the theorem report scans when none are given.
SCAN_FROM, SCAN_TO = 2, 8


def theorem_report(degree: int, cycle_type: CycleType, limits: SearchLimits,
                   scan_from: int = SCAN_FROM, scan_to: int = SCAN_TO,
                   search_limit: int = DEFAULT_SEARCH_DEPTH) -> dict:
    """Class metrics, the stability bound, and an orbit-count scan; any
    complete scan row at or past the bound with more than one orbit is a
    falsification (none is expected)."""
    ct = validate_cycle_type(cycle_type, degree)
    metrics = compute_class_metrics(degree, ct, limit=search_limit)
    if metrics.parity != "odd":
        raise ValueError(f"class {format_cycle_type(ct)} is even; the stability bound needs an odd class")
    if metrics.fixed_points < 2:
        raise ValueError(f"class {format_cycle_type(ct)} has f_C = {metrics.fixed_points} < 2")
    bound = stability_bound(metrics)
    rows = stable_length_scan(degree, ct, Perm.identity(degree), scan_from, scan_to, limits)
    falsifications = [r.n for r in rows
                      if r.complete and r.n >= bound and (r.orbit_count or 0) > 1]
    body = {
        "metrics": class_info_body(metrics),
        "N_C_bound": bound,
        "scan": {"from": scan_from, "to": scan_to, "product": "()"},
        "falsifications": falsifications,
        "falsification_found": bool(falsifications),
        "all_rows_unknown": all(not r.complete for r in rows),
        "rows": scan_rows_to_dicts(rows),
    }
    return body
