"""Tests of the benchmark itself: the tracer, the answer check, the inputs.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "orbitop.cli", *argv],
        cwd=ROOT, env=_env(), capture_output=True, check=True,
    ).stdout


def _traced(argv, spans_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "job-1", "--", *argv],
        cwd=ROOT, env=_env(), capture_output=True, check=True,
    ).stdout
    return out, json.loads(spans_path.read_text())


TRACED_JOBS = [
    ["ledger", "--scenario", "t6_z4"],
    ["invariant-pair", "--scenario", "c3_z4", "--format", "json", "--seed", "3"],
    ["nodes", "--scenario", str(BENCH / "scenarios" / "nodes_d4.scn")],
]


@pytest.mark.parametrize("argv", TRACED_JOBS, ids=lambda a: a[0])
def test_traced_report_is_byte_identical(argv, tmp_path):
    traced, _ = _traced(argv, tmp_path / "spans.json")
    assert traced == _cli(argv)


@pytest.mark.parametrize("argv", TRACED_JOBS, ids=lambda a: a[0])
def test_self_times_are_nonnegative_and_sum_to_root(argv, tmp_path):
    _, data = _traced(argv, tmp_path / "spans.json")
    spans = data["spans"]
    assert data["job"] == "job-1"
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == [tracer.ROOT_SPAN]
    assert all(spans[s[3]][1] <= s[1] <= s[2] <= spans[s[3]][2] for s in spans if s[3] >= 0)
    totals = tracer.self_times(spans)
    assert all(ns >= 0 for _, ns in totals.values())
    assert sum(ns for _, ns in totals.values()) == roots[0][2] - roots[0][1]
    assert set(totals) <= set(tracer.span_names()) | {tracer.ROOT_SPAN}
    assert set(data["counters"]) == set(tracer.COUNTER_NAMES)


def test_every_binding_site_is_patched():
    """No orbitop module attribute or class still holds an unwrapped
    function after install; the call sites the CLI and pipeline use are
    among the patched ones."""
    script = f"""
import importlib, json, sys
sys.path.insert(0, {str(BENCH)!r})
import tracer
importlib.import_module("orbitop.cli")
originals = []
for layer, name, owner, attr in tracer.LAYERS:
    module_name, _, cls = owner.partition(":")
    holder = importlib.import_module(module_name)
    if cls:
        holder = getattr(holder, cls)
    originals.append((holder, attr, getattr(holder, attr)))
sites = tracer.install(tracer.Recorder())
left = [
    f"{{mod.__name__}}.{{key}}"
    for mod in tracer.orbitop_modules()
    for key, value in vars(mod).items()
    if any(value is fn for _, _, fn in originals)
]
left += [attr for holder, attr, fn in originals if getattr(holder, attr) is fn]
print(json.dumps({{"sites": sites, "left": left}}))
"""
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=_env(),
        capture_output=True, check=True, text=True,
    ).stdout
    result = json.loads(out)
    assert result["left"] == []
    sites = {s for group in result["sites"].values() for s in group}
    for site in (
        "orbitop.exact.snf.snf", "orbitop.exact.snf", "orbitop.torus.snf",
        "orbitop.group.close", "orbitop.mckay.close", "orbitop.cli.close",
        "orbitop.cli.conjugacy_classes", "orbitop.invariants.euler.conjugacy_classes",
        "orbitop.mckay.conjugacy_classes", "orbitop.cli.su_classify",
        "orbitop.cli.spin7_check", "orbitop.cli.fixed_set", "orbitop.cli.singular_set",
        "orbitop.invariants.euler.common_fixed_set", "orbitop.cli.orbifold_euler",
        "orbitop.invariants.orbifold_euler", "orbitop.cli.quotient_betti",
        "orbitop.cli.node_smoothable", "orbitop.cli.node_kahler",
        "orbitop.cli.chi_family_census", "orbitop.cli.chi_total_count",
        "orbitop.mckay.generic_combination", "orbitop.mckay.weyl_group",
        "orbitop.mckay.build_root_system", "orbitop.mckay.normal_and_quotient",
        "orbitop.cli.load_scenario", "orbitop.cli.render",
        "orbitop.exact.matrix.Matrix.__matmul__",
        "orbitop.ade.ExtendedElement.__mul__",
    ):
        assert site in sites, site
    assert all(result["sites"][name] for name in result["sites"])


def _weyl_d4():
    """W(D4) as signed permutations of four coordinates with an even
    number of sign changes."""
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            if signs.count(-1) % 2 == 0:
                yield perm, signs


def test_d4_lift_count_is_the_number_of_involutions():
    """The independent source of the 44 lifts expected for d4_q8z2: with
    K = Z2 acting trivially, a lift is a w in W(D4) with w^2 = 1."""
    elements = list(_weyl_d4())
    assert len(elements) == 192

    def square_is_identity(perm, signs):
        return all(perm[perm[i]] == i and signs[i] * signs[perm[i]] == 1 for i in range(4))

    assert sum(square_is_identity(p, s) for p, s in elements) == 44
    lifts = [j for j in workloads.jobs_for("mckay") if j.scenario == "d4_q8z2"]
    assert all(j.independent["lift_count"] == 44 for j in lifts)


def test_answer_check_reads_math_fields_only():
    job = next(j for j in workloads.jobs_for("torus") if j.id == "euler:t6_z4")
    report = {
        "command": "euler", "scenario": "t6_z4", "version": "9.9",
        "group_order": 4, "euler_characteristic": 48, "commuting_pairs": 16,
        "conjugacy_classes": 4, "nonidentity_classes": 3, "note": "any",
    }
    assert workloads.mismatches(job, report) == []
    bad = workloads.mismatches(job, dict(report, euler_characteristic=46))
    assert len(bad) == 1 and "independent" in bad[0]
    assert workloads.mismatches(job, {"group_order": 4}) != []


def test_expected_values_are_tagged_once():
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs_for(workload):
            assert job.independent or job.pinned, job.id
            assert not set(job.independent) & set(job.pinned), job.id


def test_lattice_basis_is_unimodular_and_seeded():
    for seed in range(20):
        rows = workloads.lattice_basis(random.Random(seed))
        assert rows == workloads.lattice_basis(random.Random(seed))
        assert abs(_det([[Fraction(x) for x in r] for r in rows])) == 1
    assert workloads.lattice_basis(random.Random(0)) != workloads.lattice_basis(
        random.Random(1)
    )


def _det(m):
    m = [list(r) for r in m]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    job = workloads.jobs_for("torus")[0]
    one = run.JobRun(job, 1.0, 0.9, 40.0, 0, b"", [], Path("unused"), None)
    plain, traced = [[one]], [[one]]
    e2e = run.end_to_end_metrics(plain, [0.1, 0.2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in e2e.items()
    }
    layers = run.per_layer_metrics(plain, traced)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in layers.items()
    }
