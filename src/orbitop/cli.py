"""Command-line front end: the command table, reports and exit codes.

COMMANDS maps each command name to the function that builds its report;
argparse takes its choices from it, and `orbitop.scenario` reads the
input files.  Reports are deterministic: the same scenario and version
give byte-identical output.  Exit codes: 0 success, 2 parse error (also
a named file that cannot be read or written), 3 precondition violation
(a generator of infinite order, or a torus lattice that is singular or
not preserved, among others), 4 cap exceeded, 5 failed re-verification,
141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .errors import (
    CapExceededError,
    PreconditionError,
    ScenarioParseError,
    VerificationError,
)
from .exact import int_echelon
from .group import CLOSURE_CAP, close, conjugacy_classes, spin7_check, su_classify
from .invariants import (
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
from .scenario import load_plan, load_scenario, load_table
from .torus import fixed_set, lattice_matrices, singular_set

# ---------------------------------------------------------------------------
# Commands: each builds the report of one invocation from the parsed
# arguments; the text format prints the keys in the order set here.


def _loaded(args):
    """The scenario, and the report header of a command that reads one."""
    if not args.scenario:
        raise PreconditionError(f"command {args.command} requires --scenario")
    scenario = load_scenario(args.scenario)
    return scenario, _header(args, scenario=scenario.name)


def _header(args, **fields):
    """The report's first keys: the command, `fields`, the version."""
    return {"command": args.command, **fields, "version": __version__}


def _closed(args, torus=False):
    """The scenario, its closed group, its torus lattice (None on a linear
    ambient, refused there when `torus`) and the report header.  Mapping
    the group into the lattice checks that the group preserves it."""
    scenario, report = _loaded(args)
    group = close(scenario.generators, cap=args.cap)
    report["group_order"] = group.order
    lattice = scenario.lattice
    if lattice is not None:
        lattice_matrices(group, lattice)
    elif torus:
        raise PreconditionError("scenario has no torus ambient")
    return scenario, group, lattice, report


def _point(p) -> str:
    return "(" + ", ".join(map(str, p)) + ")"


def _group(args):
    scenario, group, _, report = _closed(args)
    classes = conjugacy_classes(group)
    kinds = sorted({su_classify(m).kind for m in group.elements})
    report |= {
        "abelian": group.is_abelian(),
        "class_sizes": sorted(len(c) for c in classes),
        "element_kinds": kinds,
    }
    if group.dim_real == 8:
        # The motions fixing the Cayley form are a group: test the generators.
        report["spin7_all"] = all(spin7_check(m) for m in scenario.generators)
    return report


def _fixed_sets(args):
    _, group, lattice, report = _closed(args)
    out = report["fixed_sets"] = []
    for i, motion in enumerate(group.elements):
        if i == group.identity_index:
            continue
        if lattice is None:
            # the fixed subspace is the kernel of rows - den * 1
            shifted = [
                [x - motion.den * (r == c) for c, x in enumerate(row)]
                for r, row in enumerate(motion.rows)
            ]
            dim = motion.dim_real - len(int_echelon(shifted)[1])
            out.append({"element": i, "fixed_subspace_dimension": dim})
            continue
        fam = fixed_set(motion, lattice)
        points = [_point(Fraction(x, fam.den) for x in p) for p in fam.points[:16]]
        out.append({"element": i, "dimension": fam.dimension,
                    "components": fam.component_count, "representatives": points})
    return report


def _singular_set(args):
    _, group, lattice, report = _closed(args, torus=True)
    sing = singular_set(group, lattice)
    return report | {
        "component_counts": sing.count_by_label(),
        "components": [
            {
                "id": k,
                "label": c.quotient_label,
                "dimension": c.dimension,
                "orbit_size": c.orbit_size,
                "stabilizer_order": len(c.generic_stabilizer),
                "special_points": [_point(p) for p in c.special_points],
            }
            for k, c in enumerate(sing.components)
        ],
        "intersection_points": [
            {"point": _point(p), "components": list(inc)}
            for p, inc in sing.intersection_points
        ],
    }


def _euler(args):
    _, group, lattice, report = _closed(args)
    euler = orbifold_euler(group, lattice)
    report |= {
        "euler_characteristic": euler.value,
        "commuting_pairs": euler.commuting_pairs,
        "conjugacy_classes": euler.class_count,
        "nonidentity_classes": euler.nonidentity_class_count,
    }
    if lattice is None and euler.value != euler.nonidentity_class_count:
        report["note"] = (
            f"value equals the total class count ({euler.class_count}), which "
            f"exceeds the nonidentity class count ({euler.nonidentity_class_count})"
        )
    return report


def _splitting(args):
    """The lift analysis of the splitting axis, and the report so far."""
    scenario, group, _, report = _closed(args)
    result = analyze_splitting(group, axis=scenario.splitting_axis - 1, seed=args.seed)
    return result, report | {
        "h_order": len(result.h_indices),
        "diagram": result.classification.diagram.name,
        "diagram_ambiguous": result.classification.ambiguous,
        "quotient_order": result.quotient.order,
        "psi_trivial": result.psi.is_trivial(),
        "weyl_order": result.weyl.order,
        "lift_count": len(result.lifts),
    }


def _lifts(args):
    result, report = _splitting(args)
    report["lifts"] = [
        {
            "canonical": lift.is_canonical(),
            "images": [
                {"aut": list(e.aut), "weyl": [list(map(str, row)) for row in e.weyl]}
                for e in lift.images
            ],
        }
        for lift in result.lifts
    ]
    return report


def _invariant_pair(args):
    result, report = _splitting(args)
    report["phi"] = [str(s) for s in result.phi]
    report["decisions"] = [
        {
            "lift": idx,
            "canonical": lift.is_canonical(),
            "exists": dec.exists,
            "alpha": [str(x) for x in dec.label.alpha] if dec.label else None,
            "beta": [str(x) for x in dec.label.beta] if dec.label else None,
            "blocking_root": list(dec.blocking_root) if dec.blocking_root else None,
        }
        for idx, (lift, dec) in enumerate(zip(result.lifts, result.decisions))
    ]
    return report


def _nodes(args):
    scenario, report = _loaded(args)
    cfg = scenario.node_classes
    if cfg is None:
        raise PreconditionError("scenario has no [node_classes] section")
    sm = node_smoothable(cfg, seed=args.seed)
    kahler = node_kahler(cfg)
    return report | {
        "class_count": len(cfg.classes),
        "smoothable": sm.smoothable,
        "smoothing_witness": list(map(str, sm.witness)) if sm.witness else None,
        "kahler_positive": kahler.positive,
        "kahler_certificate": list(map(str, kahler.certificate)),
    }


def _chi_census(args):
    census = chi_family_census(args.grid_n)
    return _header(args) | {
        "grid_n": args.grid_n,
        "family1_count": census.family1_count,
        "axis_family_count": census.axis_family_count,
        "union_count": census.union_count,
        "inclusion_exclusion_ok": True,
    }


def _chi_count(args):
    total = chi_total_count(args.grid_n)
    return _header(args) | {
        "grid_n": args.grid_n,
        "total_admissible": total,
        "algorithms_agree": True,
    }


def _ledger(args):
    scenario, group, lattice, report = _closed(args, torus=True)
    if scenario.complex_dim != 3:
        # Checked before the singular set: ledger_apply needs a 6-manifold.
        raise PreconditionError(
            "the ledger needs a torus of complex dimension 3, "
            f"not {scenario.complex_dim}"
        )
    sing = singular_set(group, lattice)
    base_betti = quotient_betti(group, lattice)
    table = load_table(args.table or scenario.table_ref or scenario.name)
    plans = _resolve_plans(args.plan or scenario.plan_ref, scenario, sing)
    results = [(name, ledger_apply(base_betti, plan, table)) for name, plan in plans]
    return report | {
        "base_betti": list(base_betti.b),
        "table": table.name,
        "results": [
            {"plan": name, "b": list(r.b), "h11": r.h11, "h21": r.h21,
             "euler_characteristic": r.euler_characteristic}
            for name, r in results
        ],
    }


def _resolve_plans(plan_arg, scenario, sing):
    """(name, plan) pairs: the scenario's default plans, one named plan,
    or the plan in a plan JSON file."""
    if plan_arg is not None:
        return [(plan_arg, _named_plan(plan_arg, sing) or load_plan(plan_arg, sing))]
    defaults = {
        "t6_z4": [(f"methods-a-count-{k}", f"z4:k{k}") for k in range(5)],
        "t6_z2z2": [("all-crepant", "z2z2:crepant"),
                    ("all-deformation", "z2z2:deformation")],
    }
    if scenario.name not in defaults:
        raise PreconditionError("no default plans for this scenario; pass --plan")
    return [(label, _named_plan(name, sing)) for label, name in defaults[scenario.name]]


def _named_plan(name, sing):
    """The bundled plan of this name, or None: `z4:kK` chooses a on K of
    the four T2/Z2 lines of t6_z4 and b on the rest; `z2z2:crepant` and
    `z2z2:deformation` make one choice on every line of t6_z2z2."""
    labels = [c.quotient_label for c in sing.components]
    if name in [f"z4:k{k}" for k in range(5)]:
        if labels.count("T2/Z2") != 4:
            raise PreconditionError("plan expects four T2/Z2 components")
        choices = {i: "crepant" for i, label in enumerate(labels) if label == "T2"}
        quotient_ids = [i for i, label in enumerate(labels) if label == "T2/Z2"]
        for pos, i in enumerate(quotient_ids):
            choices[i] = "a" if pos < int(name[4:]) else "b"
        return plan_from_choices(sing, choices)
    if name in ("z2z2:crepant", "z2z2:deformation"):
        line = name[5:]
        points = range(len(sing.intersection_points))
        return plan_from_choices(
            sing,
            dict.fromkeys(range(len(labels)), line),
            dict.fromkeys(points, "i" if line == "crepant" else "ix"),
            {"crepant": 1, "deformation": -1},
        )
    return None


COMMANDS = {
    "group": _group,
    "fixed-sets": _fixed_sets,
    "singular-set": _singular_set,
    "euler": _euler,
    "lifts": _lifts,
    "invariant-pair": _invariant_pair,
    "chi-census": _chi_census,
    "chi-count": _chi_count,
    "ledger": _ledger,
    "nodes": _nodes,
}


def run_command(args) -> dict:
    """The machine report of one CLI invocation."""
    return COMMANDS[args.command](args)


# ---------------------------------------------------------------------------
# Rendering


def render(report: dict, fmt: str) -> str:
    """The report as indented JSON with sorted keys, or as text: one
    `dotted.key: value` line per leaf, in the report's key order."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in value:
                emit(f"{prefix}{k}.", value[k])
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


# ---------------------------------------------------------------------------
# Entry point


def _write_report(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioParseError(f"cannot write report to {path}: {exc}") from exc


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
    args = build_parser().parse_args(argv)
    try:
        text = render(run_command(args), args.format)
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
