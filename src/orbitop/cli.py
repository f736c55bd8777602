"""Command-line front end: scenario files, orchestration, reports.

Scenario files are a line-oriented key-value format with section
headers; complex entries are written like `-1`, `i`, `1/2+1/2i`.
Reports are deterministic: the same scenario and version give
byte-identical output.  Exit codes: 0 success, 2 parse error (also a
named file that cannot be read or written), 3 precondition violation,
4 cap exceeded, 5 failed re-verification, 141 stdout closed by its
reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from . import __version__
from .errors import (
    CapExceededError,
    OrbitopError,
    PreconditionError,
    ScenarioParseError,
    VerificationError,
)
from .exact import Matrix, int_kernel
from .group import CLOSURE_CAP, Motion, close, conjugacy_classes, spin7_check, su_classify
from .invariants import (
    ContributionTable,
    NodeConfiguration,
    chi_family_census,
    chi_total_count,
    ledger_apply,
    node_kahler,
    node_smoothable,
    orbifold_euler,
    plan_from_choices,
    quotient_betti,
)
from .mckay import analyze_splitting
from .torus import TorusLattice, fixed_set, singular_set

COMMANDS = (
    "group",
    "fixed-sets",
    "singular-set",
    "euler",
    "lifts",
    "invariant-pair",
    "chi-census",
    "chi-count",
    "ledger",
    "nodes",
)

# Keys a scenario file may set before its first section.
HEADER_KEYS = ("name", "ambient", "complex_dim", "plan", "table")


# ---------------------------------------------------------------------------
# Scenario model and parsing


class GeneratorSpec(NamedTuple):
    rows: tuple[tuple, ...]
    real: bool = False
    conjugate: bool = False

    def to_motion(self, complex_dim: int) -> Motion:
        size = 2 * complex_dim if self.real else complex_dim
        if len(self.rows) != size or any(len(r) != size for r in self.rows):
            raise ScenarioParseError(
                f"{'real' if self.real else 'complex'} generator needs "
                f"{size} rows of {size} entries"
            )
        if self.real:
            return Motion.from_rational(self.rows)
        return Motion.from_complex(
            [list(r) for r in self.rows], conjugate=self.conjugate
        )


class Scenario(NamedTuple):
    name: str
    ambient: str  # "torus" | "linear"
    complex_dim: int
    generators: tuple[GeneratorSpec, ...]
    lattice_rows: tuple[tuple[Fraction, ...], ...] | None = None
    splitting_axis: int = 1  # 1-based complex coordinate
    node_classes: tuple[tuple[Fraction, ...], ...] | None = None
    plan_ref: str | None = None  # default plan for the ledger command
    table_ref: str | None = None  # default contribution table

    def motions(self) -> list[Motion]:
        return [g.to_motion(self.complex_dim) for g in self.generators]

    def lattice(self) -> TorusLattice:
        if self.ambient != "torus":
            raise PreconditionError("scenario has no torus ambient")
        if self.lattice_rows is None:
            return TorusLattice.standard(2 * self.complex_dim)
        return TorusLattice(basis=Matrix([list(r) for r in self.lattice_rows]).T)


def parse_complex_entry(token: str) -> tuple[Fraction, Fraction]:
    s = token.strip().replace(" ", "")
    if not s:
        raise ScenarioParseError("empty complex entry")
    terms = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    re = Fraction(0)
    im = Fraction(0)
    try:
        for t in terms:
            if t.endswith("i"):
                body = t[:-1]
                if body in ("", "+", "-"):
                    body += "1"
                im += Fraction(body)
            else:
                re += Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioParseError(f"bad complex entry {token!r}: {exc}") from exc
    return re, im


def parse_rational_entry(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioParseError(f"bad rational entry {token!r}: {exc}") from exc


def format_complex_entry(value: tuple[Fraction, Fraction]) -> str:
    re, im = value
    if im == 0:
        return str(re)
    if im == 1:
        imag = "i"
    elif im == -1:
        imag = "-i"
    else:
        imag = f"{im}i"
    if re == 0:
        return imag
    return f"{re}{imag}" if imag.startswith("-") else f"{re}+{imag}"


def parse_scenario(text: str) -> Scenario:
    header: dict[str, str] = {}
    sections: list[tuple[str, list[tuple[str, str]]]] = []
    current: list[tuple[str, str]] | None = None
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
        if current is None:
            if key in header:
                raise ScenarioParseError(f"line {lineno}: repeated header key {key!r}")
            header[key] = value
        else:
            current.append((key, value))

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
        complex_dim = int(header["complex_dim"])
    except ValueError as exc:
        raise ScenarioParseError("complex_dim must be an integer") from exc

    generators = []
    lattice_rows = None
    splitting_axis = 1
    node_classes = None
    seen = set()
    for title, entries in sections:
        if title in seen and title != "generator":
            raise ScenarioParseError(f"second [{title}] section")
        seen.add(title)
        if title == "generator":
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
            rows = [
                tuple(parse(t) for t in v.split()) for k, v in entries if k == "row"
            ]
            if not rows:
                raise ScenarioParseError("generator section has no rows")
            generators.append(
                GeneratorSpec(rows=tuple(rows), real=real, conjugate=conj)
            )
        elif title == "lattice":
            lattice_rows = _rational_rows(title, entries)
        elif title == "splitting":
            for k, v in entries:
                if k != "axis":
                    raise ScenarioParseError(f"unknown splitting key {k!r}")
                try:
                    splitting_axis = int(v)
                except ValueError as exc:
                    raise ScenarioParseError(
                        f"splitting axis must be an integer, got {v!r}"
                    ) from exc
            if len(entries) > 1:
                raise ScenarioParseError("[splitting] sets its axis more than once")
        elif title == "node_classes":
            node_classes = _rational_rows(title, entries)
        else:
            raise ScenarioParseError(f"unknown section [{title}]")
    if not generators:
        raise ScenarioParseError("scenario defines no generators")
    n = 2 * complex_dim
    if lattice_rows is not None and {len(lattice_rows), *map(len, lattice_rows)} != {n}:
        raise ScenarioParseError(f"lattice needs {n} rows of {n} entries")
    if not 1 <= splitting_axis <= complex_dim:
        raise ScenarioParseError(
            f"splitting axis {splitting_axis} is not in 1..{complex_dim}"
        )
    try:
        scenario = Scenario(
            name=header["name"],
            ambient=ambient,
            complex_dim=complex_dim,
            generators=tuple(generators),
            lattice_rows=lattice_rows,
            splitting_axis=splitting_axis,
            node_classes=node_classes,
            plan_ref=header.get("plan"),
            table_ref=header.get("table"),
        )
        scenario.motions()  # validate generator shapes now
    except OrbitopError:
        raise
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from exc
    return scenario


def _rational_rows(title, entries):
    """The `row` entries of a [lattice] or [node_classes] section."""
    for k, _ in entries:
        if k != "row":
            raise ScenarioParseError(f"unknown {title} key {k!r}")
    return tuple(tuple(parse_rational_entry(t) for t in v.split()) for _, v in entries)


def serialize_scenario(scenario: Scenario) -> str:
    out = [
        f"name: {scenario.name}",
        f"ambient: {scenario.ambient}",
        f"complex_dim: {scenario.complex_dim}",
    ]
    if scenario.plan_ref:
        out.append(f"plan: {scenario.plan_ref}")
    if scenario.table_ref:
        out.append(f"table: {scenario.table_ref}")
    if scenario.lattice_rows is not None:
        out.append("")
        out.append("[lattice]")
        for row in scenario.lattice_rows:
            out.append("row: " + " ".join(str(x) for x in row))
    for gen in scenario.generators:
        out.append("")
        out.append("[generator]")
        if gen.real:
            out.append("real: true")
        if gen.conjugate:
            out.append("conjugate: true")
        for row in gen.rows:
            if gen.real:
                out.append("row: " + " ".join(str(x) for x in row))
            else:
                out.append(
                    "row: " + " ".join(format_complex_entry(x) for x in row)
                )
    out.append("")
    out.append("[splitting]")
    out.append(f"axis: {scenario.splitting_axis}")
    if scenario.node_classes is not None:
        out.append("")
        out.append("[node_classes]")
        for row in scenario.node_classes:
            out.append("row: " + " ".join(str(x) for x in row))
    return "\n".join(out) + "\n"


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


def _write_report(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioParseError(f"cannot write report to {path}: {exc}") from exc


def load_scenario(path_or_name: str) -> Scenario:
    if path_or_name.endswith(".scn") or "/" in path_or_name:
        return parse_scenario(_read_user_file(path_or_name, "scenario file"))
    return parse_scenario(bundled_scenario_text(path_or_name))


def bundled_scenario_text(name: str) -> str:
    try:
        return (
            resources.files("orbitop.scenarios").joinpath(f"{name}.scn").read_text()
        )
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise ScenarioParseError(f"no bundled scenario named {name!r}") from exc


def load_table(name_or_path: str) -> ContributionTable:
    if name_or_path.endswith(".json") or "/" in name_or_path:
        text = _read_user_file(name_or_path, "table file")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(f"bad table JSON: {exc}") from exc
    else:
        try:
            text = (
                resources.files("orbitop.tables")
                .joinpath(f"{name_or_path}.json")
                .read_text()
            )
        except FileNotFoundError as exc:
            raise ScenarioParseError(f"no bundled table named {name_or_path!r}") from exc
        raw = json.loads(text)
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
    return ContributionTable(name=raw.get("name", name_or_path), entries=entries)


# ---------------------------------------------------------------------------
# Report assembly


def _fr(x: Fraction) -> str:
    return str(x)


def _point(p) -> str:
    return "(" + ", ".join(_fr(x) for x in p) + ")"


def run_command(command: str, args) -> dict:
    """Build the machine report for one CLI invocation."""
    if command == "chi-census":
        census = chi_family_census(args.grid_n)
        return {
            "command": command,
            "version": __version__,
            "grid_n": args.grid_n,
            "family1_count": census.family1_count,
            "axis_family_count": census.axis_family_count,
            "union_count": census.union_count,
            "inclusion_exclusion_ok": True,
        }
    if command == "chi-count":
        total = chi_total_count(args.grid_n)
        return {
            "command": command,
            "version": __version__,
            "grid_n": args.grid_n,
            "total_admissible": total,
            "algorithms_agree": True,
        }

    if not args.scenario:
        raise PreconditionError(f"command {command} requires --scenario")
    scenario = load_scenario(args.scenario)
    base = {"command": command, "scenario": scenario.name, "version": __version__}

    if command == "nodes":
        if scenario.node_classes is None:
            raise PreconditionError("scenario has no [node_classes] section")
        cfg = NodeConfiguration.make(scenario.node_classes)
        sm = node_smoothable(cfg, seed=args.seed)
        kahler = node_kahler(cfg)
        base.update(
            {
                "class_count": len(cfg.classes),
                "smoothable": sm.smoothable,
                "smoothing_witness": (
                    [_fr(x) for x in sm.witness] if sm.witness else None
                ),
                "kahler_positive": kahler.positive,
                "kahler_certificate": [_fr(x) for x in kahler.certificate],
            }
        )
        return base

    motions = scenario.motions()
    group = close(motions, cap=args.cap)
    base["group_order"] = group.order

    if command == "group":
        classes = conjugacy_classes(group)
        kinds = sorted(
            {su_classify(m).kind for m in group.elements}
        )
        base.update(
            {
                "abelian": group.is_abelian(),
                "class_sizes": sorted(len(c) for c in classes),
                "element_kinds": kinds,
            }
        )
        if group.dim_real == 8:
            # The motions fixing the Cayley form are a group: test the generators.
            base["spin7_all"] = all(spin7_check(m) for m in motions)
        return base

    if command == "euler":
        lattice = scenario.lattice() if scenario.ambient == "torus" else None
        report = orbifold_euler(group, lattice)
        base.update(
            {
                "euler_characteristic": report.value,
                "commuting_pairs": report.commuting_pairs,
                "conjugacy_classes": report.class_count,
                "nonidentity_classes": report.nonidentity_class_count,
            }
        )
        if lattice is None and report.value != report.nonidentity_class_count:
            base["note"] = (
                "value equals the total class count "
                f"({report.class_count}), which exceeds the nonidentity "
                f"class count ({report.nonidentity_class_count})"
            )
        return base

    if command == "fixed-sets":
        out = []
        if scenario.ambient == "torus":
            lattice = scenario.lattice()
            for i, motion in enumerate(group.elements):
                if i == group.identity_index:
                    continue
                fam = fixed_set(motion, lattice)
                out.append(
                    {
                        "element": i,
                        "dimension": fam.dimension,
                        "components": fam.component_count,
                        "representatives": [
                            _point(Fraction(x, fam.den) for x in p)
                            for p in fam.points[:16]
                        ],
                    }
                )
        else:
            for i, motion in enumerate(group.elements):
                if i == group.identity_index:
                    continue
                # the kernel of rows / den - 1 is that of rows - den * 1
                shifted = [
                    ([x - motion.den * (r == c) for c, x in enumerate(row)],)
                    for r, row in enumerate(motion.rows)
                ]
                out.append(
                    {
                        "element": i,
                        "fixed_subspace_dimension": len(int_kernel(shifted)[1]),
                    }
                )
        base["fixed_sets"] = out
        return base

    if command == "singular-set":
        lattice = scenario.lattice()
        report = singular_set(group, lattice)
        base.update(
            {
                "component_counts": report.count_by_label(),
                "components": [
                    {
                        "id": k,
                        "label": c.quotient_label,
                        "dimension": c.dimension,
                        "orbit_size": c.orbit_size,
                        "stabilizer_order": len(c.generic_stabilizer),
                        "special_points": [_point(p) for p in c.special_points],
                    }
                    for k, c in enumerate(report.components)
                ],
                "intersection_points": [
                    {"point": _point(p), "components": list(inc)}
                    for p, inc in report.intersection_points
                ],
            }
        )
        return base

    if command in ("lifts", "invariant-pair"):
        result = analyze_splitting(
            group, axis=scenario.splitting_axis - 1, seed=args.seed
        )
        base.update(
            {
                "h_order": len(result.h_indices),
                "diagram": result.classification.diagram.name,
                "diagram_ambiguous": result.classification.ambiguous,
                "quotient_order": result.quotient.order,
                "psi_trivial": result.psi.is_trivial(),
                "weyl_order": result.weyl.order,
                "lift_count": len(result.lifts),
            }
        )
        if command == "lifts":
            base["lifts"] = [
                {
                    "canonical": lift.is_canonical(),
                    "images": [
                        {
                            "aut": list(e.aut),
                            "weyl": [list(map(str, row)) for row in e.weyl],
                        }
                        for e in lift.images
                    ],
                }
                for lift in result.lifts
            ]
            return base
        base["phi"] = [str(s) for s in result.phi]
        base["decisions"] = [
            {
                "lift": idx,
                "canonical": lift.is_canonical(),
                "exists": dec.exists,
                "alpha": [_fr(x) for x in dec.label.alpha] if dec.label else None,
                "beta": [str(x) for x in dec.label.beta] if dec.label else None,
                "blocking_root": (
                    list(dec.blocking_root) if dec.blocking_root else None
                ),
            }
            for idx, (lift, dec) in enumerate(zip(result.lifts, result.decisions))
        ]
        return base

    if command == "ledger":
        lattice = scenario.lattice()
        if scenario.complex_dim != 3:
            # Checked before the singular set: ledger_apply needs a 6-manifold.
            raise PreconditionError(
                "the ledger needs a torus of complex dimension 3, "
                f"not {scenario.complex_dim}"
            )
        report = singular_set(group, lattice)
        base_betti = quotient_betti(group, lattice)
        table = load_table(args.table or scenario.table_ref or scenario.name)
        plans = _resolve_plans(args.plan or scenario.plan_ref, scenario, report)
        rows = []
        for plan_name, plan in plans:
            result = ledger_apply(base_betti, plan, table)
            rows.append(
                {
                    "plan": plan_name,
                    "b": list(result.b),
                    "h11": result.h11,
                    "h21": result.h21,
                    "euler_characteristic": result.euler_characteristic,
                }
            )
        base.update(
            {
                "base_betti": list(base_betti.b),
                "table": table.name,
                "results": rows,
            }
        )
        return base

    raise PreconditionError(f"unknown command {command!r}")


def _resolve_plans(plan_arg, scenario, report):
    """Bundled plan names or a plan JSON file path."""
    labels = [c.quotient_label for c in report.components]
    if plan_arg is None:
        if scenario.name == "t6_z4":
            return [
                (f"methods-a-count-{k}", _z4_plan(report, k)) for k in range(5)
            ]
        if scenario.name == "t6_z2z2":
            return [
                ("all-crepant", _z2z2_plan(report, "crepant", "i")),
                ("all-deformation", _z2z2_plan(report, "deformation", "ix")),
            ]
        raise PreconditionError(
            "no default plans for this scenario; pass --plan"
        )
    if plan_arg in [f"z4:k{k}" for k in range(5)]:
        return [(plan_arg, _z4_plan(report, int(plan_arg[4:])))]
    if plan_arg == "z2z2:crepant":
        return [(plan_arg, _z2z2_plan(report, "crepant", "i"))]
    if plan_arg == "z2z2:deformation":
        return [(plan_arg, _z2z2_plan(report, "deformation", "ix"))]
    text = _read_user_file(plan_arg, "plan")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"bad plan JSON: {exc}") from exc
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
    return [(plan_arg, plan_from_choices(report, comp, pts, signs or None))]


def _z4_plan(report, k):
    choices = {}
    quotient_ids = [
        i
        for i, c in enumerate(report.components)
        if c.quotient_label == "T2/Z2"
    ]
    if len(quotient_ids) != 4:
        raise PreconditionError("plan expects four T2/Z2 components")
    for i, c in enumerate(report.components):
        if c.quotient_label == "T2":
            choices[i] = "crepant"
    for pos, i in enumerate(quotient_ids):
        choices[i] = "a" if pos < k else "b"
    return plan_from_choices(report, choices)


def _z2z2_plan(report, line_choice, point_case):
    choices = {i: line_choice for i in range(len(report.components))}
    points = {i: point_case for i in range(len(report.intersection_points))}
    signs = {"crepant": 1, "deformation": -1}
    return plan_from_choices(report, choices, points, signs)


# ---------------------------------------------------------------------------
# Rendering


def render_text(report: dict) -> str:
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in value:
                emit(f"{prefix}{k}." if prefix else f"{k}.", value[k])
        elif isinstance(value, list):
            if all(not isinstance(x, (dict, list)) for x in value):
                lines.append(f"{prefix[:-1]}: {' '.join(str(x) for x in value)}")
            else:
                for idx, item in enumerate(value):
                    emit(f"{prefix}{idx}.", item)
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    emit("", report)
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return render_text(report)


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitop",
        description=(
            "Exact analysis of finite-group quotients of flat tori and "
            "vector spaces: fixed points, singular sets, Euler "
            "characteristics, desingularization data"
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", help="bundled name or path to a .scn file")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--cap", type=int, default=CLOSURE_CAP)
    parser.add_argument("--grid-n", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--plan", help="bundled plan name or plan JSON path")
    parser.add_argument("--table", help="bundled table name or table JSON path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = render(run_command(args.command, args), args.format)
        if args.out:
            _write_report(args.out, text)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 5
    if not args.out:
        sys.stdout.write(text)
    return 0


def run() -> None:
    """The `orbitop` command: `main`, then flush the standard streams and
    end the process by `os._exit`, skipping interpreter teardown (orbitop
    registers no exit handler, and `--out` is closed by its `with`).  A
    reader that closes stdout early ends the run with exit code 141, as
    a shell reports a process killed by SIGPIPE, and no traceback."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 141
    os._exit(code)


if __name__ == "__main__":
    run()
