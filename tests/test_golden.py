"""Reports stay byte-identical to the golden files in tests/golden/.

Each file is named COMMAND_SCENARIO.json and holds the report of
`orbitop COMMAND --scenario SCENARIO --format json` (default seed);
tests/golden/text/COMMAND_SCENARIO.txt holds the same report in the
default `--format text`."""

import hashlib
import json
from pathlib import Path

import pytest

from orbitop.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_golden_set_is_complete():
    assert len(CASES) == 27


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, tmp_path):
    command, scenario = case.split("_", 1)
    out = tmp_path / "report.json"
    argv = [command, "--scenario", scenario, "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.json").read_bytes()


@pytest.mark.parametrize("case", CASES)
def test_text_report_matches_golden(case, tmp_path):
    command, scenario = case.split("_", 1)
    out = tmp_path / "report.txt"
    argv = [command, "--scenario", scenario, "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / "text" / f"{case}.txt").read_bytes()


def test_text_golden_set_matches_the_json_set():
    assert sorted(p.stem for p in (GOLDEN / "text").glob("*.txt")) == CASES


# The D4 stress pipelines (default seed).  The `lifts` reports run to
# 185 KB, so they are pinned by the SHA-256 of the JSON report instead
# of a file under golden/.
STRESS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
D4_PIPELINE_DIGESTS = {
    ("lifts", "d4_q8z2"):
        "b9b72cddbb6422c880a4dd5b83e48cb646ba66044373ea832aa74eac33a65d6f",
    ("lifts", "d4_q8z4"):
        "0bb71f8f653b47e2dcbddbfe83d6941fc467311c5c2071cc50439096356db671",
    ("invariant-pair", "d4_q8z2"):
        "2811e5425e2ac73334b7edc7098d7b6f471b4ada81196139d3de74b1652c84b6",
    ("invariant-pair", "d4_q8z4"):
        "c7fadbe2da0dd4c209afaa4e2c73b913213ba1786486ae3889762c58558742e3",
}


@pytest.mark.parametrize("command,scenario", sorted(D4_PIPELINE_DIGESTS))
def test_d4_pipeline_report_digest(command, scenario, tmp_path):
    out = tmp_path / "report.json"
    path = STRESS / f"{scenario}.scn"
    argv = [command, "--scenario", str(path), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == D4_PIPELINE_DIGESTS[command, scenario]


# The other stress scenarios (default seed): e6_bt is the only group
# with denominator 2, mono48 the largest linear group closed here, and
# t6_z4z4 carries the benchmark's seed-0 lattice, so lattice coordinates
# with a non-identity basis are pinned.
T6_Z4Z4_SEED0_LATTICE = """
[lattice]
row: 0 0 -1 -1 -1 1
row: 1 0 0 0 0 0
row: 0 0 0 0 0 1
row: 0 -1 0 0 0 0
row: 0 0 0 0 1 0
row: 0 0 1 0 1 0
"""
STRESS_DIGESTS = {
    ("group", "e6_bt"):
        "03063df6c7939cb736138e1399a843adc1889fcd039902954d032d2b090ec0dd",
    ("euler", "e6_bt"):
        "2796ae876b9183f868807103fe54442ad841e1ba37e53013fd4cf1c561ec3350",
    ("group", "mono48"):
        "4996a73d18ab08ac204ffbbeea7041119fac3493a892df86312b90d1c728b951",
    ("euler", "mono48"):
        "5eb9dc5700dd66e4684eef20032b826d24c9d58642cce6532b85f8bb9a968712",
    ("fixed-sets", "mono48"):
        "02e3b03ef93e7008b5744b28da4c2983cfbf38ae731a8f715772821d43f075a6",
    ("fixed-sets", "t6_z4z4"):
        "ed4c8f73e80f73072e0a136ac27487e02f3d66d39df6da36cd874a0c29cd676c",
    ("singular-set", "t6_z4z4"):
        "94cb3330e68a823ef92f202f2fecc5fa8d7590f31c7a95415f41bd9bbbd18563",
    ("euler", "t6_z4z4"):
        "851a39ba867f553750c67fe7b0d92baa3a4665c36464b642e6f0ac667a1c6221",
    ("nodes", "nodes_d4"):
        "3b7456bb0bcaec03214735cfd4051bdf2a31f4c141d771d14a665fc8c18ea69b",
}


@pytest.mark.parametrize("command,scenario", sorted(STRESS_DIGESTS))
def test_stress_report_digest(command, scenario, tmp_path):
    path = STRESS / f"{scenario}.scn"
    if scenario == "t6_z4z4":
        path = tmp_path / "t6_z4z4_seed0.scn"
        path.write_text((STRESS / "t6_z4z4.scn").read_text() + T6_Z4Z4_SEED0_LATTICE)
    out = tmp_path / "report.json"
    argv = [command, "--scenario", str(path), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == STRESS_DIGESTS[command, scenario]


# t6_z4z4 on three more bases drawn like the benchmark's (seeds 1-3):
# the singular set depends on the basis, the Euler report does not.
T6_Z4Z4_LATTICES = {
    1: """
[lattice]
row: -1 0 -1 0 0 0
row: 0 0 0 0 0 1
row: 0 0 0 0 -1 0
row: 0 0 0 -1 0 -1
row: 1 0 0 0 0 0
row: 0 -1 0 0 1 0
""",
    2: """
[lattice]
row: 0 0 0 0 0 1
row: 0 1 1 0 -1 0
row: 0 0 0 1 0 0
row: 0 -1 0 0 0 0
row: 1 0 0 0 0 -1
row: 0 0 0 0 1 0
""",
    3: """
[lattice]
row: 0 0 -1 0 -1 0
row: 0 0 0 0 -1 1
row: 0 1 0 0 -1 0
row: 0 0 0 1 0 0
row: -1 0 0 0 0 0
row: 0 0 0 0 1 0
""",
}
T6_Z4Z4_SEEDED_DIGESTS = {
    ("singular-set", 1):
        "c4244a18f229ed1ebc922aa384ff6fa1f5b55af27ffc1f978e1e85ccb725b25e",
    ("singular-set", 2):
        "9342f212d75f84c0e1d2bf53e5ebbcb2150224348662ebe2e3c72b65e2523ef1",
    ("singular-set", 3):
        "aed5bfc850263caa23f47cdc10497c962e8d12304a8da1e0fbc2988587a9f691",
    ("euler", 1): STRESS_DIGESTS["euler", "t6_z4z4"],
    ("euler", 2): STRESS_DIGESTS["euler", "t6_z4z4"],
    ("euler", 3): STRESS_DIGESTS["euler", "t6_z4z4"],
}


@pytest.mark.parametrize("command,seed", sorted(T6_Z4Z4_SEEDED_DIGESTS))
def test_seeded_t6_z4z4_report_digest(command, seed, tmp_path):
    path = tmp_path / f"t6_z4z4_seed{seed}.scn"
    path.write_text((STRESS / "t6_z4z4.scn").read_text() + T6_Z4Z4_LATTICES[seed])
    out = tmp_path / "report.json"
    argv = [command, "--scenario", str(path), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == T6_Z4Z4_SEEDED_DIGESTS[command, seed]


# t6_z2z2 on Z^6 + (1/2)(1, ..., 1), whose first basis vector mixes the
# three complex planes: half the lines and points of the standard torus.
HALF_LATTICE = """
[lattice]
row: 1/2 1/2 1/2 1/2 1/2 1/2
row: 0 1 0 0 0 0
row: 0 0 1 0 0 0
row: 0 0 0 1 0 0
row: 0 0 0 0 1 0
row: 0 0 0 0 0 1
"""
HALF_LATTICE_DIGESTS = {
    "singular-set":
        "494339a0c3aa13214e1915633659661bc152087e931d455683f20b7c1035aa67",
    "euler":
        "18371124ece7d8798b80b4123ae5421312838eb9e2730d948d026afeaf1cddfd",
}


@pytest.mark.parametrize("command", sorted(HALF_LATTICE_DIGESTS))
def test_half_lattice_t6_z2z2_report_digest(command, tmp_path):
    bundled = Path(__file__).resolve().parents[1] / "src/orbitop/scenarios/t6_z2z2.scn"
    path = tmp_path / "t6_z2z2_half.scn"
    path.write_text(bundled.read_text() + HALF_LATTICE)
    out = tmp_path / "report.json"
    argv = [command, "--scenario", str(path), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HALF_LATTICE_DIGESTS[command]


# d4_q8z4 with z1 and z3 swapped and the splitting on axis 3: the
# pipeline moves that axis first, after which nothing may change.
D4_Q8Z4_ON_AXIS_3 = """\
name: d4_q8z4
ambient: linear
complex_dim: 3

[generator]
row: -i 0 0
row: 0 i 0
row: 0 0 1

[generator]
row: 0 -1 0
row: 1 0 0
row: 0 0 1

[generator]
row: i 0 0
row: 0 1 0
row: 0 0 i

[splitting]
axis: 3
"""


@pytest.mark.parametrize("command", ["lifts", "invariant-pair"])
def test_d4_pipeline_on_a_non_first_axis(command, tmp_path):
    scn = tmp_path / "d4_q8z4_axis3.scn"
    scn.write_text(D4_Q8Z4_ON_AXIS_3)
    out = tmp_path / "report.json"
    argv = [command, "--scenario", str(scn), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert (report["diagram"], report["lift_count"]) == ("D4", 80)
    if command == "invariant-pair":
        assert sum(d["exists"] for d in report["decisions"]) == 16
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == D4_PIPELINE_DIGESTS[command, "d4_q8z4"]


# An A-type case with a nontrivial diagram action: H = Z4 = <diag(i, -i)>
# on (z2, z3) gives A3, and K = Z2 swaps z2 with z3, which inverts the
# generator of H and so flips the chain; the flip has 10 lifts.
A3FLIP = """\
name: a3flip
ambient: linear
complex_dim: 3

[generator]
row: 1 0 0
row: 0 i 0
row: 0 0 -i

[generator]
row: -1 0 0
row: 0 0 1
row: 0 1 0
"""
A3FLIP_DIGESTS = {
    "lifts": "3db96ee4cd7377fbd4d2becb65ccd43dfce6de6df4ddf31d1bbc9c785115fd31",
    "invariant-pair":
        "9829ff17a2e3aaea8e8f98cff36510334308210ccf12d4cdcf8a21749f18b7b5",
}


@pytest.mark.parametrize("command", sorted(A3FLIP_DIGESTS))
def test_a3_chain_flip_report_digest(command, tmp_path):
    scn = tmp_path / "a3flip.scn"
    scn.write_text(A3FLIP)
    out = tmp_path / "report.json"
    argv = [command, "--scenario", str(scn), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert (report["diagram"], report["psi_trivial"], report["lift_count"]) == (
        "A3", False, 10
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == A3FLIP_DIGESTS[command]


# The sign-data reports for every grid size, pinned by SHA-256 of the
# JSON report.
CHI_DIGESTS = {
    ("chi-census", 1):
        "2820cb827bb6838d31c4d7de7635cda98ae431ef34d4d9eae6ffa83dd43dfc3d",
    ("chi-census", 2):
        "06435f7859b10296af8382946e15249cf562d96140ce79acd84c9990d1a59e2f",
    ("chi-census", 3):
        "ad2b12cebdc2996d26cf5d1c220d94f136718363f4d381f5c2729d59a062bafc",
    ("chi-census", 4):
        "5a061e775ef36839e960fc6c3a0992f150b4ff1a564e957fd836a9863387b9aa",
    ("chi-count", 1):
        "e43f127cc8c38a12c5f72ed99e94d13b67ab3cf5e4d55e0766059122f6802619",
    ("chi-count", 2):
        "bfc1bffe7210f675b777ad4c2e1c9338803d976d5ba5653fbf49351519e6d732",
    ("chi-count", 3):
        "b9b6cbf09155cbb239f35bf1cefdb228865de0787508d8c41562e6bea03daf94",
    ("chi-count", 4):
        "37b785bd9816f3dc8ec35076e96663fc944d7eb4b720bd7d52f647a88b48d529",
}


@pytest.mark.parametrize("command,grid_n", sorted(CHI_DIGESTS))
def test_chi_report_digest(command, grid_n, tmp_path):
    out = tmp_path / "report.json"
    argv = [command, "--grid-n", str(grid_n), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CHI_DIGESTS[command, grid_n]


# The same reports in the default text format, pinned by SHA-256.
TEXT_DIGESTS = {
    ("chi-census", "--grid-n", "4"):
        "91d028e7a667f3135b64d4db251ea464f955dd2a2989344a22125a3571954831",
    ("chi-count", "--grid-n", "4"):
        "b00548d37543c74e13f0d10584eed9343f1fd2b305b502b3e79e2f26f922cdab",
    ("nodes", "--scenario", str(STRESS / "nodes_d4.scn")):
        "e85f5195f82d600772f7ad7b2835204f2fa2fbb0e7c5612b70d93ad5a1c35202",
}


@pytest.mark.parametrize("argv", sorted(TEXT_DIGESTS), ids=lambda argv: argv[0])
def test_text_report_digest(argv, tmp_path):
    out = tmp_path / "report.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TEXT_DIGESTS[argv]
