"""The input formats: scenario files, contribution tables and plan files.

A scenario file has `key: value` header lines, then `[generator]`
sections and at most one each of `[lattice]` (on a torus only),
`[splitting]` and `[node_classes]`; `#` starts a comment.  Complex
entries are written like `-1`, `i`, `1/2+1/2i`.  Tables and plans are
JSON.  A reference ending in `.scn` (`.json` for a table) or holding a
`/` names a file, any other a bundled scenario or table.  Every bad,
missing or unreadable input raises ScenarioParseError.  A scenario is
read straight into the `Motion`s, `TorusLattice` and `NodeConfiguration`
the commands run on, so what those refuse is refused on reading.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .errors import ScenarioParseError
from .group import Motion
from .invariants import ContributionTable, DesingPlan, plan_from_choices
from .invariants.nodes import NodeConfiguration
from .torus import SingularSetReport, TorusLattice

# Keys a scenario file may set before its first section.
HEADER_KEYS = ("name", "ambient", "complex_dim", "plan", "table")


class Scenario(NamedTuple):
    name: str
    ambient: str  # "torus" | "linear"
    complex_dim: int
    generators: tuple[Motion, ...]
    lattice: TorusLattice | None = None  # None on a linear ambient
    splitting_axis: int = 1  # 1-based complex coordinate
    node_classes: NodeConfiguration | None = None
    plan_ref: str | None = None  # default plan for the ledger command
    table_ref: str | None = None  # default contribution table


def parse_complex_entry(token: str) -> tuple[Fraction, Fraction]:
    s = token.strip().replace(" ", "")
    if not s:
        raise ScenarioParseError("empty complex entry")
    real = imag = Fraction(0)
    try:
        # a term starts at each sign that follows neither a sign nor a slash
        for t in re.split(r"(?<=[^-+/])(?=[-+])", s):
            if t.endswith("i"):
                body = t[:-1]
                imag += Fraction(body + "1" if body in ("", "+", "-") else body)
            else:
                real += Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioParseError(f"bad complex entry {token!r}: {exc}") from exc
    return real, imag


def parse_rational_entry(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioParseError(f"bad rational entry {token!r}: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    """Every section is checked first; then the motions, the lattice (the
    unit lattice if none is given) and the node configuration are built."""
    header, sections = _split_sections(text)
    ambient, complex_dim = _parse_header(header)
    generators, fields = _parse_sections(sections)
    if not generators:
        raise ScenarioParseError("scenario defines no generators")
    n = 2 * complex_dim
    vectors = fields.get("lattice")
    if vectors is not None and {len(vectors), *map(len, vectors)} != {n}:
        raise ScenarioParseError(f"lattice needs {n} rows of {n} entries")
    splitting_axis = fields.get("splitting", 1)
    if not 1 <= splitting_axis <= complex_dim:
        raise ScenarioParseError(
            f"splitting axis {splitting_axis} is not in 1..{complex_dim}"
        )
    motions = tuple(_motion(*g, complex_dim) for g in generators)
    lattice = None
    if ambient == "torus":  # the section's vectors are the basis's columns
        lattice = TorusLattice(zip(*vectors)) if vectors else TorusLattice.standard(n)
    elif vectors is not None:
        raise ScenarioParseError("a [lattice] section needs ambient: torus")
    classes = fields.get("node_classes")
    return Scenario(
        name=header["name"], ambient=ambient, complex_dim=complex_dim,
        generators=motions, lattice=lattice, splitting_axis=splitting_axis,
        node_classes=None if classes is None else NodeConfiguration(classes),
        plan_ref=header.get("plan"), table_ref=header.get("table"),
    )


def _split_sections(text):
    """The header as a dict, and each section as (title, [(key, value)])."""
    header, sections, current = {}, [], None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = []
            sections.append((line[1:-1].strip(), current))
            continue
        if ":" not in line:
            raise ScenarioParseError(f"line {lineno}: expected key: value")
        key, value = (part.strip() for part in line.split(":", 1))
        if current is not None:
            current.append((key, value))
        elif key in header:
            raise ScenarioParseError(f"line {lineno}: repeated header key {key!r}")
        else:
            header[key] = value
    return header, sections


def _parse_header(header):
    """The ambient and complex dimension the header names."""
    for key in header:
        if key not in HEADER_KEYS:
            raise ScenarioParseError(f"unknown header key {key!r}")
    for needed in ("name", "ambient", "complex_dim"):
        if needed not in header:
            raise ScenarioParseError(f"missing header field {needed!r}")
    ambient = header["ambient"]
    if ambient not in ("torus", "linear"):
        raise ScenarioParseError(f"unknown ambient {ambient!r}")
    try:
        return ambient, int(header["complex_dim"])
    except ValueError as exc:
        raise ScenarioParseError("complex_dim must be an integer") from exc


def _parse_sections(sections):
    """The generators, and the sections that may appear once by title."""
    generators = []
    fields = {}
    for title, entries in sections:
        if title in fields:
            raise ScenarioParseError(f"second [{title}] section")
        if title == "generator":
            generators.append(_parse_generator(entries))
        elif title == "splitting":
            fields[title] = _parse_splitting(entries)
        elif title in ("lattice", "node_classes"):
            fields[title] = _rational_rows(title, entries)
        else:
            raise ScenarioParseError(f"unknown section [{title}]")
    return generators, fields


def _parse_generator(entries):
    """(rows, real, conjugate), each entry a Fraction or an (re, im) pair."""
    flags = {"real": False, "conjugate": False}
    for k, v in entries:
        if k in flags:
            if v not in ("true", "false"):
                raise ScenarioParseError(
                    f"generator flag {k} must be true or false, got {v!r}"
                )
            flags[k] = v == "true"
        elif k != "row":
            raise ScenarioParseError(f"unknown generator key {k!r}")
    real, conj = flags["real"], flags["conjugate"]
    if real and conj:
        raise ScenarioParseError(
            "a real generator cannot be conjugate; write its real form"
        )
    parse = parse_rational_entry if real else parse_complex_entry
    rows = [tuple(parse(t) for t in v.split()) for k, v in entries if k == "row"]
    if not rows:
        raise ScenarioParseError("generator section has no rows")
    return tuple(rows), real, conj


def _motion(rows, real, conjugate, complex_dim) -> Motion:
    """The motion of a [generator] section, its shape checked first."""
    size = 2 * complex_dim if real else complex_dim
    if {len(rows), *map(len, rows)} != {size}:
        kind = "real" if real else "complex"
        raise ScenarioParseError(f"{kind} generator needs {size} rows of {size} entries")
    return Motion.from_rational(rows) if real else Motion.from_complex(rows, conjugate)


def _parse_splitting(entries) -> int:
    axis = 1
    for k, v in entries:
        if k != "axis":
            raise ScenarioParseError(f"unknown splitting key {k!r}")
        try:
            axis = int(v)
        except ValueError as exc:
            msg = f"splitting axis must be an integer, got {v!r}"
            raise ScenarioParseError(msg) from exc
    if len(entries) > 1:
        raise ScenarioParseError("[splitting] sets its axis more than once")
    return axis


def _rational_rows(title, entries):
    """The `row` entries of a [lattice] or [node_classes] section."""
    for k, _ in entries:
        if k != "row":
            raise ScenarioParseError(f"unknown {title} key {k!r}")
    return tuple(tuple(parse_rational_entry(t) for t in v.split()) for _, v in entries)


# ---------------------------------------------------------------------------
# Reading scenarios, tables and plans


def _read_user_file(path: str, what: str) -> str:
    """The UTF-8 text of a file named on the command line; a missing,
    unreadable or undecodable file is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise ScenarioParseError(f"{what} not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read {what} {path}: {exc}") from exc


def _read(ref: str, what: str, suffix: str) -> str:
    """The text of the file that `ref` names, or of the bundled `what`
    (a scenario or a table) called `ref`."""
    if ref.endswith(suffix) or "/" in ref:
        return _read_user_file(ref, f"{what} file")
    try:
        return resources.files(f"orbitop.{what}s").joinpath(ref + suffix).read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise ScenarioParseError(f"no bundled {what} named {ref!r}") from exc


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"bad {what} JSON: {exc}") from exc


def load_scenario(ref: str) -> Scenario:
    return parse_scenario(_read(ref, "scenario", ".scn"))


def load_table(ref: str) -> ContributionTable:
    raw = _json(_read(ref, "table", ".json"), "table")
    try:
        entries = {
            (e["kind"], e["choice"]): (e["dh11"], e["dh21"]) for e in raw["entries"]
        }
    except (KeyError, TypeError) as exc:
        raise ScenarioParseError(
            f"bad table: each entry needs kind, choice, dh11, dh21 ({exc})"
        ) from exc
    if any(type(d) is not int for deltas in entries.values() for d in deltas):
        raise ScenarioParseError("bad table: dh11 and dh21 must be integers")
    return ContributionTable(name=raw.get("name", ref), entries=entries)


def load_plan(path: str, report: SingularSetReport) -> DesingPlan:
    """The plan in a plan JSON file, checked against the singular set."""
    raw = _json(_read_user_file(path, "plan"), "plan")
    try:
        comp = {int(k): v for k, v in raw.get("components", {}).items()}
        pts = {int(k): v for k, v in raw.get("points", {}).items()}
        signs = dict(raw.get("signs", {}))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioParseError(
            f"bad plan: expected an object whose components and points map "
            f"integer ids to choices ({exc})"
        ) from exc
    if any(type(v) is not int for v in signs.values()):
        raise ScenarioParseError("bad plan: signs must be integers")
    if any(type(v) is not str for v in (*comp.values(), *pts.values())):
        raise ScenarioParseError(
            "bad plan: component and point choices must be strings"
        )
    return plan_from_choices(report, comp, pts, signs or None)
