"""CLI: scenario parsing, report determinism, exit codes."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import orbitop
from orbitop.cli import main
from orbitop.scenario import load_scenario, parse_complex_entry, parse_scenario

BUNDLED = ("t6_z4", "t6_z2z2", "c3_z4", "c3_z2z2", "r8_q8")


def format_complex_entry(value):
    """A complex entry as the scenario format writes it: `-1`, `i`, `1/2+1/2i`."""
    re, im = value
    if im == 0:
        return str(re)
    imag = {1: "i", -1: "-i"}.get(im, f"{im}i")
    if re == 0:
        return imag
    return f"{re}{imag}" if imag.startswith("-") else f"{re}+{imag}"


def serialize_scenario(scenario):
    """Scenario text that parses back to `scenario`, for the round trips."""
    out = [
        f"name: {scenario.name}",
        f"ambient: {scenario.ambient}",
        f"complex_dim: {scenario.complex_dim}",
    ]
    if scenario.plan_ref:
        out.append(f"plan: {scenario.plan_ref}")
    if scenario.table_ref:
        out.append(f"table: {scenario.table_ref}")

    def section(title, rows, fmt=str, flags=()):
        out.extend(["", f"[{title}]", *flags])
        out.extend("row: " + " ".join(fmt(x) for x in row) for row in rows)

    if scenario.lattice_rows is not None:
        section("lattice", scenario.lattice_rows)
    for gen in scenario.generators:
        flags = ["real: true"] * gen.real + ["conjugate: true"] * gen.conjugate
        section("generator", gen.rows, str if gen.real else format_complex_entry, flags)
    out.extend(["", "[splitting]", f"axis: {scenario.splitting_axis}"])
    if scenario.node_classes is not None:
        section("node_classes", scenario.node_classes)
    return "\n".join(out) + "\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parsing ------------------------------------------------------------------


@pytest.mark.parametrize(
    "token,expected",
    [
        ("0", (0, 0)),
        ("1", (1, 0)),
        ("-1", (-1, 0)),
        ("i", (0, 1)),
        ("-i", (0, -1)),
        ("2i", (0, 2)),
        ("1/2", (Fraction(1, 2), 0)),
        ("1/2+1/2i", (Fraction(1, 2), Fraction(1, 2))),
        ("-1/2-3/4i", (Fraction(-1, 2), Fraction(-3, 4))),
        ("3-2i", (3, -2)),
    ],
)
def test_parse_complex_entries(token, expected):
    assert parse_complex_entry(token) == (
        Fraction(expected[0]),
        Fraction(expected[1]),
    )


def test_complex_entry_roundtrip():
    for token in ("0", "1", "-1", "i", "-i", "1/2+1/2i", "3-2i", "-5/7i"):
        value = parse_complex_entry(token)
        assert parse_complex_entry(format_complex_entry(value)) == value


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_parse_and_roundtrip(name):
    scenario = load_scenario(name)
    assert scenario.name == name
    text = serialize_scenario(scenario)
    again = parse_scenario(text)
    assert again == scenario
    # and serialization is stable
    assert serialize_scenario(again) == text


ROOT = Path(__file__).resolve().parents[1]
SCENARIO_FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/orbitop/scenarios", "perfbench/scenarios")
    for path in (ROOT / folder).glob("*.scn")
)


@pytest.mark.parametrize("relpath", SCENARIO_FILES + ["t6_z4z4+lattice"])
def test_shipped_scenario_files_parse(relpath, tmp_path):
    """The parser refuses unknown keys, so every scenario file the package
    and the benchmark read must still parse; the benchmark appends a
    seeded [lattice] section to t6_z4z4, as this test does."""
    if relpath == "t6_z4z4+lattice":
        text = (ROOT / "perfbench/scenarios/t6_z4z4.scn").read_text()
        path = tmp_path / "t6_z4z4.scn"
        path.write_text(text + "\n[lattice]\n" + "".join(
            "row: " + " ".join(str(int(j == (i + 1) % 6)) for j in range(6)) + "\n"
            for i in range(6)
        ))
    else:
        path = ROOT / relpath
    scenario = load_scenario(str(path))
    assert scenario.name == path.stem
    assert parse_scenario(serialize_scenario(scenario)) == scenario


@pytest.mark.parametrize(
    "name,order",
    [("t6_z4", 4), ("t6_z2z2", 4), ("c3_z4", 4), ("c3_z2z2", 4), ("r8_q8", 8)],
)
def test_bundled_scenario_group_orders(name, order):
    from orbitop.group import close

    scenario = load_scenario(name)
    assert close(scenario.motions()).order == order


def test_parse_error_on_garbage(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("name t6\n")
    code = main(["group", "--scenario", str(bad)])
    assert code == 2


def test_parse_error_on_missing_file(capsys):
    assert main(["group", "--scenario", "/nonexistent/x.scn"]) == 2
    assert "scenario file not found: /nonexistent/x.scn" in capsys.readouterr().err
    code, out, err = run_cli(
        capsys, "ledger", "--scenario", "t6_z4", "--table", "/nonexistent/t.json"
    )
    assert (code, out) == (2, "")
    assert "table file not found: /nonexistent/t.json" in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
@pytest.mark.parametrize(
    "argv,what",
    [
        (["group", "--scenario"], "scenario file"),
        (["ledger", "--scenario", "t6_z4", "--plan", "z4:k1", "--table"], "table file"),
        (["ledger", "--scenario", "t6_z4", "--plan"], "plan"),
    ],
    ids=["scenario", "table", "plan"],
)
def test_unreadable_named_file_is_parse_error(tmp_path, capsys, argv, what, kind):
    path = tmp_path / "named.scn"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe name: t6")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert f"cannot read {what} {path}" in err


@pytest.mark.parametrize("target", ["missing-dir/report.json", "a-directory"])
def test_unwritable_out_is_parse_error(tmp_path, capsys, target):
    (tmp_path / "a-directory").mkdir()
    out_path = tmp_path / target
    code, out, err = run_cli(
        capsys, "euler", "--scenario", "t6_z4", "--out", str(out_path)
    )
    assert (code, out) == (2, "")
    assert "cannot write report to" in err
    assert not (tmp_path / "missing-dir").exists()


def test_unknown_bundled_scenario():
    assert main(["group", "--scenario", "missing_name"]) == 2


C3_HEADER = "name: bad\nambient: linear\ncomplex_dim: 3\n\n"
DIAGONAL = "[generator]\nrow: -1 0 0\nrow: 0 i 0\nrow: 0 0 i\n"
REAL_IDENTITY = "".join(
    "row: " + " ".join(str(int(i == j)) for j in range(6)) + "\n" for i in range(6)
)
# T^2/(+-1), whose lattice must be 2 x 2; a body starting with this
# header is written as it is, any other after C3_HEADER.
T2_HEADER = "name: bad\nambient: torus\ncomplex_dim: 1\n\n[generator]\nrow: -1\n"


def _square_lattice(n):
    return "[lattice]\n" + "".join(
        "row: " + " ".join(str(int(i == j)) for j in range(n)) + "\n" for i in range(n)
    )


@pytest.mark.parametrize(
    "command,body,message",
    [
        ("group", DIAGONAL + "[splitting]\naxis: one\n", "axis must be an integer"),
        ("group", "[generator]\nrow: 1 0 0\nrow: 0 1\nrow: 0 0 1\n", "3 entries"),
        ("lifts", DIAGONAL + "[splitting]\naxis: 4\n", "axis 4 is not in 1..3"),
        ("nodes", DIAGONAL + "[node_classes]\nrow: 1 x\n", "bad rational entry 'x'"),
        ("nodes", DIAGONAL + "[node_classes]\nrow: 1 1/0\n", "bad rational entry '1/0'"),
        ("group", DIAGONAL + "[lattice]\nrow: 1 x\n", "bad rational entry 'x'"),
        ("group", DIAGONAL + "[lattice]\nrow: 1 1/0\n", "bad rational entry '1/0'"),
        ("group", "[generator]\nreal: true\nrow: 1 y\n", "bad rational entry 'y'"),
        # Flag values other than true/false, real next to conjugate and
        # unknown keys used to be dropped without a word.
        ("group", "[generator]\nconjugate: True\nrow: -1 0 0\nrow: 0 i 0\nrow: 0 0 i\n",
         "generator flag conjugate must be true or false, got 'True'"),
        ("group", "[generator]\nreal: true\nconjugate: true\n" + REAL_IDENTITY,
         "a real generator cannot be conjugate"),
        ("group", DIAGONAL + "rwo: 1 0 0\n", "unknown generator key 'rwo'"),
        # A misspelt splitting key used to run on axis 1.
        ("lifts", DIAGONAL + "[splitting]\naxsi: 3\n", "unknown splitting key 'axsi'"),
        ("group", DIAGONAL + "[lattice]\nrow: 1 0 0 0 0 0\nrwo: 0 1 0 0 0 0\n",
         "unknown lattice key 'rwo'"),
        ("nodes", DIAGONAL + "[node_classes]\nrow: 1 0\nclass: 0 1\n",
         "unknown node_classes key 'class'"),
        ("group", "seed: 3\n" + DIAGONAL, "unknown header key 'seed'"),
        # A lattice of the wrong size ran, truncated by int products.
        ("fixed-sets", T2_HEADER + _square_lattice(3), "lattice needs 2 rows of 2"),
        ("euler", T2_HEADER + _square_lattice(4), "lattice needs 2 rows of 2"),
        # Repeats kept the last value without a word.
        ("group", "name: again\n" + DIAGONAL, "repeated header key 'name'"),
        ("group", DIAGONAL + (_square_lattice(6) * 2), "second [lattice] section"),
        ("lifts", DIAGONAL + "[splitting]\naxis: 2\n[splitting]\naxis: 3\n",
         "second [splitting] section"),
        ("lifts", DIAGONAL + "[splitting]\naxis: 2\naxis: 3\n",
         "[splitting] sets its axis more than once"),
        ("nodes", DIAGONAL + "[node_classes]\nrow: 1 0\n[node_classes]\nrow: 0 1\n",
         "second [node_classes] section"),
    ],
    ids=[
        "non-integer-axis",
        "ragged-row",
        "axis-beyond-dim",
        "node-class-word",
        "node-class-zero-denominator",
        "lattice-word",
        "lattice-zero-denominator",
        "real-generator-word",
        "capitalised-flag-value",
        "conjugate-real-generator",
        "unknown-generator-key",
        "unknown-splitting-key",
        "unknown-lattice-key",
        "unknown-node-classes-key",
        "unknown-header-key",
        "lattice-3x3-on-t2",
        "lattice-4x4-on-t2",
        "repeated-header-key",
        "second-lattice",
        "second-splitting",
        "repeated-splitting-axis",
        "second-node-classes",
    ],
)
def test_bad_scenario_is_parse_error(tmp_path, capsys, command, body, message):
    scn = tmp_path / "bad.scn"
    scn.write_text(body if body.startswith(T2_HEADER) else C3_HEADER + body)
    code, _, err = run_cli(capsys, command, "--scenario", str(scn))
    assert code == 2
    assert message in err


# --- commands ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["e6_bt", "mono48", "r8_q8"])
def test_linear_fixed_dimensions_match_sympy_nullspace(capsys, name):
    from sympy import Matrix as SympyMatrix
    from sympy import eye

    from orbitop.group import close

    path = ROOT / "perfbench" / "scenarios" / f"{name}.scn"
    target = str(path) if path.exists() else name
    code, out, _ = run_cli(capsys, "fixed-sets", "--scenario", target, "--format", "json")
    assert code == 0
    group = close(load_scenario(target).motions())
    expected = [
        {
            "element": i,
            "fixed_subspace_dimension": len(
                (SympyMatrix(m.rows) - m.den * eye(m.dim_real)).nullspace()
            ),
        }
        for i, m in enumerate(group.elements)
        if i != group.identity_index
    ]
    assert json.loads(out)["fixed_sets"] == expected


def test_euler_t6_z4_reports_48(capsys):
    code, out, _ = run_cli(capsys, "euler", "--scenario", "t6_z4")
    assert code == 0
    assert "euler_characteristic: 48" in out


def test_explicit_false_flags_are_the_defaults(tmp_path, capsys):
    plain = tmp_path / "plain.scn"
    plain.write_text(C3_HEADER + DIAGONAL)
    flagged = tmp_path / "flagged.scn"
    flagged.write_text(
        C3_HEADER + DIAGONAL.replace("\n", "\nreal: false\nconjugate: false\n", 1)
    )
    assert load_scenario(str(plain)).motions() == load_scenario(str(flagged)).motions()


def test_motion_over_the_size_cap_exits_4(tmp_path, capsys):
    # complex_dim 33 gives 66 x 66 real motions, over MAX_DIM = 64.
    scn = tmp_path / "big.scn"
    scn.write_text(
        "name: big\nambient: linear\ncomplex_dim: 33\n\n[generator]\n"
        + "".join(
            "row: " + " ".join("1" if i == j else "0" for j in range(33)) + "\n"
            for i in range(33)
        )
    )
    code, _, err = run_cli(capsys, "group", "--scenario", str(scn))
    assert code == 4
    assert "exceeds cap 64" in err


C1_HEADER = "name: bad\nambient: linear\ncomplex_dim: 1\n\n"


@pytest.mark.parametrize(
    "text",
    [
        C3_HEADER + "[generator]\nrow: 3 0 0\nrow: 0 1 0\nrow: 0 0 1\n",
        C3_HEADER + "[generator]\nrow: 10 0 0\nrow: 0 1 0\nrow: 0 0 1\n",
        C3_HEADER + "[generator]\nrow: 1e9 0 0\nrow: 0 1 0\nrow: 0 0 1\n",
        C1_HEADER + "[generator]\nrow: 1e5\n",
        C1_HEADER + "[generator]\nrow: 3/5+4/5i\n",
        C1_HEADER + "[generator]\nreal: true\nrow: 2 1\nrow: 1 1\n",
        C1_HEADER + "[generator]\nreal: true\nrow: 1 0\nrow: 0 -1\n\n"
        "[generator]\nreal: true\nrow: 3/5 4/5\nrow: 4/5 -3/5\n",
    ],
    ids=["scale-3", "scale-10", "scale-1e9", "c1-scale-1e5", "c1-rotation",
         "cat-map", "reflection-pair"],
)
def test_generator_of_infinite_order_exits_3_within_a_second(tmp_path, capsys, text):
    """Closing such a group used to run until the element cap, for
    minutes when the entries of the powers grow fast."""
    scn = tmp_path / "infinite.scn"
    scn.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "group", "--scenario", str(scn))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "it has infinite order" in err


def _unit_rows_but(k, row):
    return "".join(
        "row: " + " ".join(map(str, row if i == k else [int(i == j) for j in range(6)]))
        + "\n"
        for i in range(6)
    )


@pytest.mark.parametrize(
    "lattice,message",
    [
        (_unit_rows_but(1, [2, 0, 0, 0, 0, 0]), "lattice basis must be independent"),
        (_unit_rows_but(3, [0, 0, 0, 2, 0, 0]),
         "motion does not preserve the lattice"),
    ],
    ids=["singular", "not-preserved"],
)
@pytest.mark.parametrize(
    "command",
    ["group", "fixed-sets", "singular-set", "euler", "lifts", "invariant-pair", "ledger"],
)
def test_every_command_on_a_torus_checks_its_lattice(
    tmp_path, capsys, command, lattice, message
):
    """group, lifts and invariant-pair used to run on such a torus and exit 0."""
    text = (ROOT / "src/orbitop/scenarios/t6_z4.scn").read_text()
    scn = tmp_path / "t6_z4_bad_lattice.scn"
    scn.write_text(text + "[lattice]\n" + lattice)
    code, out, err = run_cli(capsys, command, "--scenario", str(scn))
    assert (code, out) == (3, "")
    assert message in err


def test_ledger_refuses_a_torus_that_is_not_a_threefold(tmp_path):
    """Z2 = {1, -1} on a complex 7-torus: the ledger must refuse it before
    any exterior power or singular set is computed."""
    scn = tmp_path / "t14.scn"
    scn.write_text(
        "name: t14\nambient: torus\ncomplex_dim: 7\n\n[generator]\n"
        + "".join(
            "row: " + " ".join("-1" if i == j else "0" for j in range(7)) + "\n"
            for i in range(7)
        )
    )
    env = dict(os.environ, PYTHONPATH=str(Path(orbitop.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "orbitop.cli", "ledger", "--scenario", str(scn),
         "--plan", "z4:k0"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert done.returncode == 3, done.stderr
    assert "complex dimension 3" in done.stderr


def test_group_on_trivial_scenario(tmp_path, capsys):
    scn = tmp_path / "trivial.scn"
    scn.write_text(
        "name: trivial\nambient: linear\ncomplex_dim: 1\n\n[generator]\nrow: 1\n"
    )
    code, out, _ = run_cli(capsys, "group", "--scenario", str(scn))
    assert code == 0
    assert "group_order: 1" in out


def test_chi_census_counts(capsys):
    code, out, _ = run_cli(capsys, "chi-census", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["family1_count"] == 2048
    assert data["axis_family_count"] == 65536
    assert data["union_count"] == 198651


def test_reports_byte_identical(capsys):
    first = run_cli(capsys, "euler", "--scenario", "t6_z4", "--format", "json")
    second = run_cli(capsys, "euler", "--scenario", "t6_z4", "--format", "json")
    assert first == second
    assert first[0] == 0


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run_cli(capsys, "group", "--scenario", "t6_z4", "--cap", "2")
    assert code == 4
    assert "cap" in err


def test_precondition_exit_code(capsys):
    # the order-8 linear scenario has no codimension-two stabilizer for
    # the distinguished line, so the lift pipeline must refuse
    code, _, err = run_cli(capsys, "lifts", "--scenario", "r8_q8")
    assert code == 3
    assert err


def test_singular_set_torus_only(capsys):
    code, _, _ = run_cli(capsys, "singular-set", "--scenario", "c3_z4")
    assert code == 3


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_out_file_written(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "euler",
        "--scenario",
        "t6_z4",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    data = json.loads(out_path.read_text())
    assert data["euler_characteristic"] == 48


def test_ledger_z4_cli(capsys):
    code, out, _ = run_cli(
        capsys, "ledger", "--scenario", "t6_z4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    rows = {r["plan"]: r for r in data["results"]}
    for k in range(5):
        row = rows[f"methods-a-count-{k}"]
        assert row["b"][2] == 11 + 5 * k
        assert row["b"][3] == 24 - 2 * k
        assert row["euler_characteristic"] == 12 * k


def test_ledger_z2z2_cli(capsys):
    code, out, _ = run_cli(
        capsys, "ledger", "--scenario", "t6_z2z2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    rows = {r["plan"]: r for r in data["results"]}
    assert rows["all-crepant"]["h11"] == 51
    assert rows["all-crepant"]["h21"] == 3
    assert rows["all-deformation"]["h11"] == 3
    assert rows["all-deformation"]["h21"] == 115


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["t6_z4", "t6_z2z2"])
def test_ledger_on_a_rebased_torus_matches_the_bundled_scenario(
    tmp_path, capsys, shear_lattice, name, seed
):
    """The benchmark's seeded bases generate Z^6, so appending one as the
    [lattice] keeps the torus and its ledger; the line families are read
    off ambient directions, not lattice coordinates."""
    text = (ROOT / "src/orbitop/scenarios" / f"{name}.scn").read_text()
    rows = shear_lattice(seed).basis.data
    scn = tmp_path / f"{name}_seed{seed}.scn"
    scn.write_text(
        text + "\n[lattice]\n"
        + "".join("row: " + " ".join(map(str, row)) + "\n" for row in rows)
    )
    reports = []
    for ref in (str(scn), name):
        code, out, err = run_cli(capsys, "ledger", "--scenario", ref, "--format", "json")
        assert code == 0, err
        reports.append(json.loads(out))
    for field in ("base_betti", "results"):
        assert reports[0][field] == reports[1][field]


def test_positive_dimensional_intersection_is_a_precondition_error(tmp_path, capsys):
    """diag(1, 1, -1) and diag(-1, 1, 1) fix two T^4s that meet along a
    T^2: the report refuses it by name instead of an internal message."""
    scn = tmp_path / "t6_posdim.scn"
    scn.write_text(
        "name: t6_posdim\nambient: torus\ncomplex_dim: 3\n\n"
        "[generator]\nrow: 1 0 0\nrow: 0 1 0\nrow: 0 0 -1\n\n"
        "[generator]\nrow: -1 0 0\nrow: 0 1 0\nrow: 0 0 1\n"
    )
    code, _, err = run_cli(capsys, "singular-set", "--scenario", str(scn))
    assert code == 3
    assert "positive-dimensional component intersection not supported" in err


def test_ledger_named_plan(capsys):
    code, out, _ = run_cli(
        capsys,
        "ledger",
        "--scenario",
        "t6_z4",
        "--plan",
        "z4:k2",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    (row,) = data["results"]
    assert row["b"][2] == 21 and row["b"][3] == 20


GOOD_ENTRY = {"kind": "T2/Z2", "choice": "a", "dh11": 5, "dh21": 0}


@pytest.mark.parametrize(
    "table",
    [
        {"name": "no-entries"},
        [GOOD_ENTRY],
        *({"entries": [{k: v for k, v in GOOD_ENTRY.items() if k != key}]}
          for key in GOOD_ENTRY),
        {"entries": [dict(GOOD_ENTRY, dh11="five")]},
        {"entries": [dict(GOOD_ENTRY, dh21=0.5)]},
    ],
    ids=["no-entries", "not-an-object", "no-kind", "no-choice", "no-dh11",
         "no-dh21", "string-delta", "fractional-delta"],
)
def test_malformed_table_is_parse_error(tmp_path, capsys, table):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(
        capsys, "ledger", "--scenario", "t6_z4", "--plan", "z4:k1", "--table", str(path)
    )
    assert (code, out) == (2, "")
    assert "bad table" in err


@pytest.mark.parametrize("plan", ["z4:kx", "z4:k9", "z4:k-1", "z4:k"])
def test_unknown_z4_plan_name_is_parse_error(capsys, plan):
    code, out, err = run_cli(capsys, "ledger", "--scenario", "t6_z4", "--plan", plan)
    assert (code, out) == (2, "")
    assert "plan not found" in err


@pytest.mark.parametrize(
    "plan",
    [
        {"components": {"x": "a"}},
        [{"components": {}}],
        {"components": {"0": "crepant"}, "signs": {"crepant": "plus"}},
        {"components": {"0": "crepant"}, "signs": {"crepant": 0.5}},
        {"components": {"0": ["a"]}},
        {"components": {str(i): ["x"] for i in range(10)}},
    ],
    ids=[
        "non-integer-id",
        "not-an-object",
        "string-sign",
        "fractional-sign",
        "list-choice",
        "list-choice-everywhere",
    ],
)
def test_malformed_plan_is_parse_error(tmp_path, capsys, plan):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code, out, err = run_cli(
        capsys, "ledger", "--scenario", "t6_z4", "--plan", str(path)
    )
    assert (code, out) == (2, "")
    assert "bad plan" in err


def test_list_point_choice_is_parse_error(tmp_path, capsys):
    # A complete t6_z2z2 plan whose triple-point choices are lists.
    plan = {
        "components": {str(i): "crepant" for i in range(48)},
        "points": {str(i): ["i"] for i in range(64)},
        "signs": {"crepant": 1},
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code, out, err = run_cli(
        capsys, "ledger", "--scenario", "t6_z2z2", "--plan", str(path)
    )
    assert (code, out) == (2, "")
    assert "bad plan" in err


def test_plan_line_choice_without_sign_is_precondition_error(tmp_path, capsys):
    # t6_z2z2 has 48 lines and 64 triple points; the signs name only one
    # of the two line choices the plan uses.
    plan = {
        "components": {
            str(i): "crepant" if i % 2 else "deformation" for i in range(48)
        },
        "points": {str(i): "i" for i in range(64)},
        "signs": {"deformation": -1},
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code, out, err = run_cli(
        capsys, "ledger", "--scenario", "t6_z2z2", "--plan", str(path)
    )
    assert (code, out) == (3, "")
    assert "no line sign for choice 'crepant'" in err


@pytest.mark.parametrize("command", ["chi-census", "chi-count"])
@pytest.mark.parametrize("n", ["0", "-1", "5"])
def test_grid_n_out_of_range_is_precondition_error(capsys, command, n):
    code, out, err = run_cli(capsys, command, "--grid-n", n)
    assert (code, out) == (3, "")
    assert "grid size" in err


def test_invariant_pair_cli(capsys):
    code, out, _ = run_cli(
        capsys, "invariant-pair", "--scenario", "c3_z4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["lift_count"] == 2
    first, second = data["decisions"]
    assert first["canonical"] and first["exists"]
    assert all(x == "Cyc(0)" for x in first["beta"])
    assert second["exists"]
    assert all(x == "0" for x in second["alpha"])


def test_twenty_node_classes_report_a_kahler_certificate(tmp_path, capsys):
    rng = random.Random(20)
    classes = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(20)]
    rows = "".join("row: " + " ".join(map(str, c)) + "\n" for c in classes)
    scn = tmp_path / "nodes20.scn"
    scn.write_text(
        "name: nodes20\nambient: linear\ncomplex_dim: 1\n\n"
        "[generator]\nrow: 1\n\n[node_classes]\n" + rows
    )
    code, out, _ = run_cli(capsys, "nodes", "--scenario", str(scn), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kahler_positive"] is False
    lam = [Fraction(x) for x in data["kahler_certificate"]]
    assert len(lam) == 20 and min(lam) >= 0 and sum(lam) == 1
    assert all(sum(l * c[i] for l, c in zip(lam, classes)) == 0 for i in range(4))


def test_nodes_cli(tmp_path, capsys):
    scn = tmp_path / "nodes.scn"
    scn.write_text(
        "name: nd\nambient: linear\ncomplex_dim: 1\n\n"
        "[generator]\nrow: 1\n\n[node_classes]\nrow: 1 0\nrow: -1 0\n"
    )
    code, out, _ = run_cli(
        capsys, "nodes", "--scenario", str(scn), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["smoothable"] is True
    assert data["kahler_positive"] is False
    assert data["kahler_certificate"] == ["1/2", "1/2"]


def test_seed_changes_witness_but_not_decision(capsys):
    outs = []
    for seed in ("0", "5"):
        code, out, _ = run_cli(
            capsys,
            "invariant-pair",
            "--scenario",
            "c3_z4",
            "--format",
            "json",
            "--seed",
            seed,
        )
        assert code == 0
        outs.append(json.loads(out))
    assert [d["exists"] for d in outs[0]["decisions"]] == [
        d["exists"] for d in outs[1]["decisions"]
    ]


# --- import cost -------------------------------------------------------------

IMPORT_SCRIPT = """
import sys
import orbitop.cli
from orbitop.exact import cyclotomic_polynomial

built = []
if cyclotomic_polynomial.cache_info().currsize:
    built.append("cyclotomic_polynomial")
modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "orbitop"]
for module in modules:
    for name, value in vars(module).items():
        if name.startswith("__"):
            continue
        if hasattr(value, "cache_info"):
            if value.cache_info().currsize:
                built.append(f"{module.__name__}.{name}")
        elif isinstance(value, (list, tuple, dict, set, frozenset)) and len(value) > 16:
            built.append(f"{module.__name__}.{name}")
print(" ".join(sorted(set(built))) or "none")
"""


def test_cli_import_builds_no_invariant_tables():
    """Every CLI job pays for the import, so no module of the package
    builds a table at import time: the chi and Betti tables, the
    cyclotomic polynomials, the identity rows and the kernel's field
    data are all built on first use."""
    src = str(Path(orbitop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["none"]


STARTUP_SCRIPT = """
import json, sys
import orbitop.cli

out = {"loaded": [m for m in ("dataclasses", "inspect") if m in sys.modules]}

from fractions import Fraction
from orbitop import group
from orbitop.errors import PreconditionError
from orbitop.exact import Cyclotomic, Matrix
from orbitop.invariants import ChiData, NodeConfiguration
from orbitop.mckay import ASeriesModel
from orbitop.torus import TorusLattice

one = Cyclotomic.from_rational(1)
bad = {
    "Motion": lambda: group.Motion(((1, 0), (0, 0))),
    "TorusLattice": lambda: TorusLattice(Matrix([[1, 2], [2, 4]])),
    "NodeConfiguration": lambda: NodeConfiguration(((Fraction(1),), ())),
    "ChiData": lambda: ChiData(((1,),), ((1,),), ((2,),)),
    "ASeriesModel": lambda: ASeriesModel(1, "resolution", one, one, one, 2),
}
out["accepted"] = []
for name, build in bad.items():
    try:
        build()
    except PreconditionError:
        continue
    out["accepted"].append(name)

calls = []
product = group.int_product
group.int_product = lambda *args: calls.append(1) or product(*args)
m = group.Motion(((0, -1), (1, 0)))
out["isometry"] = [m.is_isometry, m.is_isometry, group.Motion(m.rows).is_isometry]
out["isometry_products"] = len(calls)
out["late"] = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps(out))
"""


def test_cli_startup_loads_no_dataclasses_and_records_keep_their_checks():
    """Every CLI job is a fresh process, so its records are NamedTuples:
    importing the CLI loads neither dataclasses nor inspect.  The
    validated records still refuse bad input, and a cached property of a
    motion is computed once per instance."""
    src = str(Path(orbitop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["loaded"] == [] and out["late"] == []
    assert out["accepted"] == []
    assert out["isometry"] == [True, True, True]
    assert out["isometry_products"] == 2


# --- the `orbitop` command as a process ---------------------------------------


def _cli_process(*argv, script=None, stdout=subprocess.PIPE):
    """Start `python -m orbitop.cli ARGV`, or `python -c SCRIPT ARGV`."""
    src = str(Path(orbitop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    head = ["-c", script] if script else ["-m", "orbitop.cli"]
    return subprocess.Popen(
        [sys.executable, *head, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
    )


def _finish(proc):
    out, err = proc.communicate(timeout=60)
    return proc.returncode, out, err.decode()


def test_command_prints_the_golden_report():
    """The process ends by os._exit after flushing stdout: nothing of the
    report is lost."""
    golden = (ROOT / "tests/golden/fixed-sets_t6_z2z2.json").read_bytes()
    code, out, err = _finish(
        _cli_process("fixed-sets", "--scenario", "t6_z2z2", "--format", "json")
    )
    assert (code, err) == (0, "")
    assert out == golden


def test_command_writes_the_golden_report_to_out(tmp_path):
    golden = (ROOT / "tests/golden/singular-set_t6_z4.json").read_bytes()
    target = tmp_path / "report.json"
    code, out, err = _finish(
        _cli_process(
            "singular-set", "--scenario", "t6_z4", "--format", "json",
            "--out", str(target),
        )
    )
    assert (code, out, err) == (0, b"", "")
    assert target.read_bytes() == golden


FAILING_RUN_SCRIPT = """
from orbitop import cli
from orbitop.errors import VerificationError

def failing_close(*args, **kwargs):
    raise VerificationError("table entry (0, 0) disagrees with the product")

cli.close = failing_close
cli.run()
"""


@pytest.mark.parametrize(
    "argv,script,code,message",
    [
        (("group", "--scenario", "no_such_scenario"), None, 2, "parse error: "),
        (("singular-set", "--scenario", "c3_z4"), None, 3, "precondition violated: "),
        (("group", "--scenario", "c3_z4"), FAILING_RUN_SCRIPT, 5,
         "verification failed: table entry (0, 0)"),
    ],
    ids=["parse", "precondition", "verification"],
)
def test_command_exit_codes_keep_their_messages(argv, script, code, message):
    done = _finish(_cli_process(*argv, script=script))
    assert done[:2] == (code, b"")
    assert done[2].startswith(message)


def test_closed_stdout_ends_without_a_traceback():
    """A reader that stops early (`orbitop euler ... | true`) closes the
    pipe before the report is written: the run exits 141, as a shell
    reports SIGPIPE, and prints no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(
            "euler", "--scenario", "t6_z4", "--format", "json", stdout=write_end
        )
    finally:
        os.close(write_end)
    assert _finish(proc)[::2] == (141, "")


@pytest.mark.parametrize("seed", [None, *range(6)])
@pytest.mark.parametrize(
    "name,plan,chi", [("t6_z4", "methods-a-count-4", 48), ("t6_z2z2", "all-crepant", 96)]
)
def test_crepant_plan_euler_number_equals_the_orbifold_euler_number(
    tmp_path, capsys, shear_lattice, name, plan, chi, seed
):
    """A crepant resolution has the orbifold Euler number (Dixon, Harvey,
    Vafa and Witten): the ledger's crepant plan and `euler` agree, on
    the standard lattice and on re-based copies of the same torus."""
    ref = name
    if seed is not None:
        rows = shear_lattice(seed).basis.data
        scn = tmp_path / f"{name}_seed{seed}.scn"
        scn.write_text(
            (ROOT / "src/orbitop/scenarios" / f"{name}.scn").read_text()
            + "\n[lattice]\n"
            + "".join("row: " + " ".join(map(str, row)) + "\n" for row in rows)
        )
        ref = str(scn)
    code, out, err = run_cli(capsys, "ledger", "--scenario", ref, "--format", "json")
    assert code == 0, err
    ledger = {r["plan"]: r["euler_characteristic"] for r in json.loads(out)["results"]}
    code, out, err = run_cli(capsys, "euler", "--scenario", ref, "--format", "json")
    assert code == 0, err
    assert ledger[plan] == json.loads(out)["euler_characteristic"] == chi
