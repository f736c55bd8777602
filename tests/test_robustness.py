"""Guards on the CLI as a whole: mutated input files end in an exit code,
never a traceback or a hang, and reports keep their invariants under
changes of presentation that leave the group and the space alone."""

import contextlib
import io
import json
import re
import signal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orbitop.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src/orbitop/scenarios"
TABLES = ROOT / "src/orbitop/tables"
BUNDLED = sorted(p.stem for p in SCENARIOS.glob("*.scn"))
COMMANDS = ("group", "fixed-sets", "singular-set", "euler", "lifts",
            "invariant-pair", "chi-census", "chi-count", "ledger", "nodes")

# A complete t6_z4 plan: its six T2 lines and four T2/Z2 lines.
T6_Z4_PLAN = json.dumps(
    {"components": {str(i): "crepant" if i < 6 else "ab"[i % 2] for i in range(10)}},
    indent=1,
)


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout("example ran past 5 s")


def _run(argv):
    """main(argv) with its output swallowed, under a 5 s alarm."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(5)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# --- mutations ------------------------------------------------------------------


def _swap_tokens(lines, a, b):
    text = "\n".join(lines)
    parts = re.split(r"(\s+)", text)
    words = list(range(0, len(parts), 2))
    i, j = words[a % len(words)], words[b % len(words)]
    parts[i], parts[j] = parts[j], parts[i]
    return "".join(parts).split("\n")


def _drop_line(lines, a, b):
    return lines[: a % len(lines)] + lines[a % len(lines) + 1:]


def _repeat_line(lines, a, b):
    k = a % len(lines)
    return lines[: k + 1] + lines[k:]


def _repeat_section(lines, a, b):
    heads = [k for k, line in enumerate(lines) if line.lstrip().startswith("[")]
    if not heads:
        return _repeat_line(lines, a, b)
    start = heads[a % len(heads)]
    end = next((k for k in heads if k > start), len(lines))
    return lines[:end] + lines[start:end] + lines[end:]


MUTATIONS = (_swap_tokens, _drop_line, _repeat_line, _repeat_section)
EDITS = st.lists(
    st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 999), st.integers(0, 999)),
    min_size=1,
    max_size=3,
)


def _mutate(text, edits):
    lines = text.split("\n")
    for mutation, a, b in edits:
        lines = mutation(lines, a, b) or [""]
    return "\n".join(lines)


SOURCES = (
    [("scenario", name, (SCENARIOS / f"{name}.scn").read_text()) for name in BUNDLED]
    + [("table", p.stem, p.read_text()) for p in sorted(TABLES.glob("*.json"))]
    + [("plan", "t6_z4", T6_Z4_PLAN)]
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(source=st.sampled_from(SOURCES), edits=EDITS, command=st.sampled_from(COMMANDS))
def test_mutated_inputs_end_in_an_exit_code(workdir, source, edits, command):
    """Token swaps, dropped or repeated lines and repeated sections in a
    bundled scenario, a bundled table or a plan file: `main` returns 0,
    2, 3, 4 or 5 and raises nothing, within 5 s."""
    kind, name, text = source
    path = workdir / (f"{name}.scn" if kind == "scenario" else f"{name}.json")
    path.write_text(_mutate(text, edits))
    if kind == "scenario":
        argv = [command, "--scenario", str(path)]
    elif kind == "table":
        argv = ["ledger", "--scenario", name, "--table", str(path)]
    else:
        argv = ["ledger", "--scenario", name, "--plan", str(path)]
    assert _run([*argv, "--format", "json"]) in (0, 2, 3, 4, 5)


# --- metamorphic relations ------------------------------------------------------


def _blocks(text):
    """The header and each section of a scenario, as lists of lines."""
    blocks = [[]]
    for line in text.splitlines():
        if line.startswith("["):
            blocks.append([])
        blocks[-1].append(line)
    return blocks


def _join(blocks):
    return "\n".join(line for block in blocks for line in block) + "\n"


def _reversed_generators(text):
    blocks = _blocks(text)
    gens = [b for b in blocks if b[0] == "[generator]"]
    rest = [b for b in blocks if b[0] != "[generator]"]
    return _join(rest[:1] + gens[::-1] + rest[1:])


def _duplicated_generator(text):
    blocks = _blocks(text)
    first = next(b for b in blocks if b[0] == "[generator]")
    return _join(blocks + [first])


def _permuted_coordinates(text):
    """z_j -> z_perm[j] on every generator, the splitting axis mapped."""
    blocks = _blocks(text)
    dim = int(next(
        line.split(":")[1] for line in blocks[0] if line.startswith("complex_dim")
    ))
    perm = [*range(1, dim), 0]
    for block in blocks[1:]:
        if block[0] == "[generator]":
            rows = [x.split(":")[1].split() for x in block if x.startswith("row")]
            flags = [x for x in block[1:] if x and not x.startswith("row")]
            block[1:] = flags + [
                "row: " + " ".join(rows[perm[j]][perm[k]] for k in range(dim))
                for j in range(dim)
            ]
        elif block[0] == "[splitting]":
            axis = int(block[1].split(":")[1])
            block[1] = f"axis: {perm.index(axis - 1) + 1}"
    return _join(blocks)


def _invariants(capsys, ref, torus):
    """The numbers a change of presentation must keep, with exit codes."""
    reports = {}
    commands = ["group", "euler", "lifts", "invariant-pair"]
    for command in commands + ["singular-set"] * torus:
        code = main([command, "--scenario", ref, "--format", "json"])
        out = capsys.readouterr().out
        reports[command] = json.loads(out) if code == 0 else code
    found = {
        "group": reports["group"]["group_order"],
        "classes": len(reports["group"]["class_sizes"]),
        "euler": reports["euler"]["euler_characteristic"],
        "lifts": reports["lifts"],
        "exists": reports["invariant-pair"],
    }
    if isinstance(found["lifts"], dict):
        found["lifts"] = found["lifts"]["lift_count"]
    if isinstance(found["exists"], dict):
        found["exists"] = sum(d["exists"] for d in found["exists"]["decisions"])
    if torus:
        found["labels"] = reports["singular-set"]["component_counts"]
    return found


@pytest.mark.parametrize(
    "change", [_reversed_generators, _duplicated_generator, _permuted_coordinates]
)
@pytest.mark.parametrize("name", BUNDLED)
def test_reports_keep_their_invariants_under_a_change_of_presentation(
    tmp_path, capsys, name, change
):
    text = (SCENARIOS / f"{name}.scn").read_text()
    torus = "ambient: torus" in text
    path = tmp_path / f"{name}.scn"
    path.write_text(change(text))
    assert _invariants(capsys, str(path), torus) == _invariants(capsys, name, torus)
