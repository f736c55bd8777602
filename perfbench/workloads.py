"""Job lists, inputs and expected answers of the three benchmark workloads.

A job is one `orbitop` CLI invocation.  Its report is checked on math
fields only (group order, class sizes, Euler value, component counts,
Betti and ledger rows, lift counts, decision flags, chi counts, node
flags), never on bytes, so a change to the report layout does not fail
the check.  Every expected value is tagged with its source:

- ``independent``: known without running orbitop (by construction of the
  group, from the literature the ledger tables are calibrated to, or by
  a count made in another model, see the benchmark's tests);
- ``pinned``: what the seed commit of this benchmark reports.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCENARIO_DIR = HERE / "scenarios"

# Commands whose witnesses depend on --seed; the benchmark passes its own.
SEEDED_COMMANDS = ("lifts", "invariant-pair", "nodes")

# Stress scenario whose [lattice] basis is drawn from the workload seed.
SEEDED_LATTICE = "t6_z4z4"


@dataclass(frozen=True)
class Job:
    command: str
    scenario: str | None
    independent: dict = field(default_factory=dict)
    pinned: dict = field(default_factory=dict)

    @property
    def id(self) -> str:
        return f"{self.command}:{self.scenario or '-'}"


def _torus_jobs() -> list[Job]:
    jobs = [
        Job("group", "t6_z4", {"group_order": 4}, {"class_sizes": [1, 1, 1, 1]}),
        Job(
            "fixed-sets",
            "t6_z4",
            {"group_order": 4},
            {"fixed_sets": [[0, 16], [0, 16], [2, 16]]},
        ),
        Job(
            "singular-set",
            "t6_z4",
            {"group_order": 4},
            {"component_counts": {"T2": 6, "T2/Z2": 4}, "intersection_points": 0},
        ),
        Job(
            "euler",
            "t6_z4",
            {"group_order": 4, "euler_characteristic": 48},
            {"commuting_pairs": 16, "conjugacy_classes": 4},
        ),
        Job(
            "ledger",
            "t6_z4",
            {"group_order": 4, "h11_h21:methods-a-count-4": [31, 7]},
            {
                "base_betti": [1, 0, 5, 4, 5, 0, 1],
                "rows": [
                    ["methods-a-count-0", [1, 0, 11, 24, 11, 0, 1], 11, 11, 0],
                    ["methods-a-count-1", [1, 0, 16, 22, 16, 0, 1], 16, 10, 12],
                    ["methods-a-count-2", [1, 0, 21, 20, 21, 0, 1], 21, 9, 24],
                    ["methods-a-count-3", [1, 0, 26, 18, 26, 0, 1], 26, 8, 36],
                    ["methods-a-count-4", [1, 0, 31, 16, 31, 0, 1], 31, 7, 48],
                ],
            },
        ),
        Job("group", "t6_z2z2", {"group_order": 4}, {"class_sizes": [1, 1, 1, 1]}),
        Job(
            "fixed-sets",
            "t6_z2z2",
            {"group_order": 4},
            {"fixed_sets": [[2, 16], [2, 16], [2, 16]]},
        ),
        Job(
            "singular-set",
            "t6_z2z2",
            {"group_order": 4},
            {"component_counts": {"T2/Z2": 48}, "intersection_points": 64},
        ),
        Job(
            "euler",
            "t6_z2z2",
            {"group_order": 4, "euler_characteristic": 96},
            {"commuting_pairs": 16, "conjugacy_classes": 4},
        ),
        Job(
            "ledger",
            "t6_z2z2",
            {"group_order": 4, "h11_h21:all-crepant": [51, 3]},
            {
                "base_betti": [1, 0, 3, 8, 3, 0, 1],
                "rows": [
                    ["all-crepant", [1, 0, 51, 8, 51, 0, 1], 51, 3, 96],
                    ["all-deformation", [1, 0, 3, 232, 3, 0, 1], 3, 115, -224],
                ],
            },
        ),
        Job(
            "fixed-sets",
            "t6_z4z4",
            {"group_order": 16},
            {
                "fixed_sets": [[0, 16]] * 6 + [[2, 4]] * 6 + [[2, 16]] * 3,
            },
        ),
        Job(
            "singular-set",
            "t6_z4z4",
            {"group_order": 16},
            {
                "component_counts": {"T2/Z2": 3, "T2/Z4": 24},
                "intersection_points": 28,
            },
        ),
        Job(
            "euler",
            "t6_z4z4",
            {"group_order": 16},
            {
                "euler_characteristic": 180,
                "commuting_pairs": 256,
                "conjugacy_classes": 16,
            },
        ),
        Job(
            "chi-census",
            None,
            {
                "family1_count": 2048,
                "axis_family_count": 65536,
                "union_count": 198651,
            },
        ),
        Job("chi-count", None, {}, {"total_admissible": 7630843}),
    ]
    return jobs


def _pipeline_jobs(
    scenario: str, *, order: int, h_order: int, diagram: str, quotient: int,
    psi_trivial: bool, weyl: int, lifts: int, exists: int, blocked: int,
    lifts_independent: bool = False,
) -> list[Job]:
    """`lifts` and `invariant-pair` on one scenario; `exists` and `blocked`
    count the lifts whose invariant pair exists or is blocked by a root."""
    shared_ind = {"group_order": order}
    shared_pin = {
        "h_order": h_order,
        "diagram": diagram,
        "quotient_order": quotient,
        "psi_trivial": psi_trivial,
        "weyl_order": weyl,
    }
    count = {"lift_count": lifts}
    ind, pin = (count, {}) if lifts_independent else ({}, count)
    return [
        Job("lifts", scenario, {**shared_ind, **ind}, {**shared_pin, **pin}),
        Job(
            "invariant-pair",
            scenario,
            {**shared_ind, **ind},
            {
                **shared_pin,
                **pin,
                "exists_count": exists,
                "blocked_count": blocked,
                "canonical_exists": True,
            },
        ),
    ]


def _mckay_jobs() -> list[Job]:
    jobs = []
    for scenario in ("c3_z4", "c3_z2z2", "t6_z4", "t6_z2z2"):
        jobs += _pipeline_jobs(
            scenario, order=4, h_order=2, diagram="A1", quotient=2,
            psi_trivial=True, weyl=2, lifts=2, exists=2, blocked=0,
        )
    # 44 = #{w in W(D4) : w^2 = 1}, the lifts of a trivial Z2 action.
    jobs += _pipeline_jobs(
        "d4_q8z2", order=16, h_order=8, diagram="D4", quotient=2,
        psi_trivial=True, weyl=192, lifts=44, exists=44, blocked=0,
        lifts_independent=True,
    )
    jobs += _pipeline_jobs(
        "d4_q8z4", order=32, h_order=8, diagram="D4", quotient=4,
        psi_trivial=False, weyl=192, lifts=80, exists=16, blocked=64,
    )
    jobs.append(
        Job(
            "nodes",
            "nodes_d4",
            {"class_count": 10},
            {"smoothable": True, "kahler_positive": False},
        )
    )
    return jobs


def _groups_jobs() -> list[Job]:
    e6_classes = [1] * 8 + [4] * 16 + [6] * 4
    mono_classes = [1, 1, 3, 3, 6, 6, 6, 6, 8, 8]
    return [
        Job("group", "e6_bt", {"group_order": 96}, {"class_sizes": e6_classes}),
        Job(
            "euler",
            "e6_bt",
            {"group_order": 96},
            {
                "euler_characteristic": 28,
                "commuting_pairs": 2688,
                "conjugacy_classes": 28,
            },
        ),
        Job("group", "mono48", {"group_order": 48}, {"class_sizes": mono_classes}),
        Job(
            "euler",
            "mono48",
            {"group_order": 48},
            {
                "euler_characteristic": 10,
                "commuting_pairs": 480,
                "conjugacy_classes": 10,
            },
        ),
        Job(
            "fixed-sets",
            "mono48",
            {"group_order": 48},
            {"fixed_subspaces": {"0": 15, "2": 23, "4": 9}},
        ),
        Job(
            "group",
            "r8_q8",
            {"group_order": 8},
            {"class_sizes": [1, 1, 2, 2, 2], "spin7_all": True},
        ),
    ]


WORKLOADS = {
    "torus": _torus_jobs,
    "mckay": _mckay_jobs,
    "groups": _groups_jobs,
}


def jobs_for(workload: str) -> list[Job]:
    return WORKLOADS[workload]()


# ---------------------------------------------------------------------------
# Inputs


def lattice_basis(rng: random.Random) -> list[list[int]]:
    """A small unimodular basis of Z^6: three row shears of the identity,
    rows shuffled and signs flipped.  Bases of this size keep the Euler
    sum near its standard-basis cost; denser ones can make the Smith
    normal forms in it grow many times slower."""
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    for _ in range(3):
        i, j = rng.sample(range(6), 2)
        sign = rng.choice((-1, 1))
        rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in rows]


def write_inputs(seed: int, out_dir: Path) -> dict[str, str]:
    """Write the seeded scenario files and map every scenario name the
    workloads use to the --scenario argument that reaches it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = {
        path.stem: str(path) for path in sorted(SCENARIO_DIR.glob("*.scn"))
    }
    basis = lattice_basis(random.Random(seed))
    text = (SCENARIO_DIR / f"{SEEDED_LATTICE}.scn").read_text()
    text += "\n[lattice]\n" + "".join(
        "row: " + " ".join(str(x) for x in row) + "\n" for row in basis
    )
    seeded = out_dir / f"{SEEDED_LATTICE}_seed{seed}.scn"
    seeded.write_text(text)
    refs[SEEDED_LATTICE] = str(seeded)
    return refs


def job_argv(job: Job, refs: dict[str, str], seed: int) -> list[str]:
    argv = [job.command]
    if job.scenario is not None:
        argv += ["--scenario", refs.get(job.scenario, job.scenario)]
    argv += ["--format", "json"]
    if job.command in SEEDED_COMMANDS:
        argv += ["--seed", str(seed)]
    return argv


# ---------------------------------------------------------------------------
# Checking


def answers(command: str, report: dict) -> dict:
    """The math fields of one report, in a layout-independent form."""
    out = {}
    for key in ("group_order", "class_sizes", "spin7_all", "euler_characteristic",
                "commuting_pairs", "conjugacy_classes", "component_counts",
                "base_betti", "h_order", "diagram", "quotient_order",
                "psi_trivial", "weyl_order", "lift_count", "class_count",
                "smoothable", "kahler_positive", "family1_count",
                "axis_family_count", "union_count", "total_admissible"):
        if key in report:
            out[key] = report[key]
    if command == "fixed-sets":
        sets = report["fixed_sets"]
        if sets and "components" in sets[0]:
            out["fixed_sets"] = sorted([s["dimension"], s["components"]] for s in sets)
        else:
            dims = Counter(str(s["fixed_subspace_dimension"]) for s in sets)
            out["fixed_subspaces"] = dict(sorted(dims.items()))
    if command == "singular-set":
        out["intersection_points"] = len(report["intersection_points"])
    if command == "ledger":
        rows = report["results"]
        out["rows"] = [
            [r["plan"], r["b"], r["h11"], r["h21"], r["euler_characteristic"]]
            for r in rows
        ]
        for r in rows:
            out[f"h11_h21:{r['plan']}"] = [r["h11"], r["h21"]]
    if command == "invariant-pair":
        decisions = report["decisions"]
        out["exists_count"] = sum(d["exists"] for d in decisions)
        out["blocked_count"] = sum(not d["exists"] for d in decisions)
        out["canonical_exists"] = all(d["exists"] for d in decisions if d["canonical"])
    return out


def mismatches(job: Job, report: dict) -> list[str]:
    """Expected fields the report gets wrong, as readable strings."""
    got = answers(job.command, report)
    bad = []
    for source, expected in (("independent", job.independent), ("pinned", job.pinned)):
        for key, want in expected.items():
            if got.get(key) != want:
                bad.append(f"{key}: expected {want!r} ({source}), got {got.get(key)!r}")
    return bad


def scenarios_of(workload: str) -> list[str]:
    """Scenario names of a workload, in first-use order."""
    names = []
    for job in jobs_for(workload):
        if job.scenario is not None and job.scenario not in names:
            names.append(job.scenario)
    return names
