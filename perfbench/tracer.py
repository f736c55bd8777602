"""Spans around orbitop's public functions, recorded from outside.

Run as a script, this executes one orbitop CLI job in the current
process with every function in LAYERS wrapped, then writes the spans and
counters to a JSON file:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json JOB_ID -- euler --scenario t6_z4

The report on standard output is the one `python -m orbitop.cli` prints.
Nothing under src/ is changed: each function is replaced at every module
attribute that holds it, and methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

ROOT_SPAN = "job"

# (layer, span name, "module" or "module:Class", attribute)
LAYERS = (
    ("exact", "matmul", "orbitop.exact.matrix:Matrix", "__matmul__"),
    ("exact", "inverse", "orbitop.exact.matrix:Matrix", "inverse"),
    ("exact", "det", "orbitop.exact.matrix:Matrix", "det"),
    ("exact", "rref", "orbitop.exact.matrix:Matrix", "rref"),
    ("exact", "kernel", "orbitop.exact.matrix:Matrix", "kernel_basis"),
    ("exact", "snf", "orbitop.exact.snf", "snf"),
    ("group", "close", "orbitop.group", "close"),
    ("group", "conjugacy_classes", "orbitop.group", "conjugacy_classes"),
    ("group", "su_classify", "orbitop.group", "su_classify"),
    ("group", "normal_and_quotient", "orbitop.group", "normal_and_quotient"),
    ("group", "spin7_check", "orbitop.group", "spin7_check"),
    ("torus", "fixed_set", "orbitop.torus", "fixed_set"),
    ("torus", "common_fixed_set", "orbitop.torus", "common_fixed_set"),
    ("torus", "singular_set", "orbitop.torus", "singular_set"),
    ("ade", "build_root_system", "orbitop.ade", "build_root_system"),
    ("ade", "weyl_group", "orbitop.ade", "weyl_group"),
    ("ade", "extended_mul", "orbitop.ade:ExtendedElement", "__mul__"),
    ("mckay", "classify_kleinian", "orbitop.mckay", "classify_kleinian"),
    ("mckay", "compute_psi", "orbitop.mckay", "compute_psi"),
    ("mckay", "enumerate_chi_lifts", "orbitop.mckay", "enumerate_chi_lifts"),
    ("mckay", "build_invariant_pair_problem", "orbitop.mckay",
     "build_invariant_pair_problem"),
    ("mckay", "invariant_pair_decide", "orbitop.mckay", "invariant_pair_decide"),
    ("invariants", "orbifold_euler", "orbitop.invariants.euler", "orbifold_euler"),
    ("invariants", "quotient_betti", "orbitop.invariants.betti", "quotient_betti"),
    ("invariants", "exterior_power_matrix", "orbitop.invariants.betti",
     "exterior_power_matrix"),
    ("invariants", "generic_combination", "orbitop.invariants.nodes",
     "generic_combination"),
    ("invariants", "node_smoothable", "orbitop.invariants.nodes", "node_smoothable"),
    ("invariants", "node_kahler", "orbitop.invariants.nodes", "node_kahler"),
    ("invariants", "chi_family_census", "orbitop.invariants.chi", "chi_family_census"),
    ("invariants", "chi_total_count", "orbitop.invariants.chi", "chi_total_count"),
    ("cli", "load_scenario", "orbitop.cli", "load_scenario"),
    ("cli", "render", "orbitop.cli", "render"),
)


def span_names() -> list[str]:
    """Every span name the wrappers can record; `kernel_basis` is split by
    the field of the matrix entries."""
    names = []
    for layer, name, _, _ in LAYERS:
        if name == "kernel":
            names += [f"{layer}.kernel_q", f"{layer}.kernel_cyc"]
        else:
            names.append(f"{layer}.{name}")
    return names


COUNTER_NAMES = (
    "group.close.elements",
    "torus.fixed_set.components",
    "torus.singular_set.components",
    "ade.weyl_group.elements",
    "mckay.vertex_map_candidates",
    "mckay.lifts.candidates",
    "mckay.lifts.accepted",
    "invariants.commuting_pairs",
)


class Recorder:
    """Spans as (name, start_ns, end_ns, parent index), kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        name_of = _kernel_name if name == "exact.kernel" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name_of(args[0]) if name_of else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if count is not None:
                count(self.counters, result, args)
            return result

        return traced


def _kernel_name(matrix) -> str:
    from orbitop.exact import Cyclotomic

    cyc = any(isinstance(x, Cyclotomic) for row in matrix.data for x in row)
    return "exact.kernel_cyc" if cyc else "exact.kernel_q"


def _count_close(c, group, args):
    c["group.close.elements"] += group.order


def _count_fixed_set(c, family, args):
    c["torus.fixed_set.components"] += family.component_count


def _count_singular_set(c, report, args):
    c["torus.singular_set.components"] += len(report.components)


def _count_weyl(c, weyl, args):
    c["ade.weyl_group.elements"] += len(weyl.elements) if weyl.enumerated else 0


def _count_kleinian(c, classification, args):
    c["mckay.vertex_map_candidates"] += len(classification.vertex_maps)


def _count_lifts(c, lifts, args):
    # Candidates tried: |W| to the number of quotient generators, the size
    # of the product enumerate_chi_lifts walks.
    from orbitop import mckay

    psi, weyl = args[0], args[1]
    gens = mckay._quotient_generators(psi.source)
    c["mckay.lifts.candidates"] += len(weyl.elements) ** len(gens)
    c["mckay.lifts.accepted"] += len(lifts)


def _count_euler(c, report, args):
    c["invariants.commuting_pairs"] += report.commuting_pairs


COUNTERS = {
    "group.close": _count_close,
    "torus.fixed_set": _count_fixed_set,
    "torus.singular_set": _count_singular_set,
    "ade.weyl_group": _count_weyl,
    "mckay.classify_kleinian": _count_kleinian,
    "mckay.enumerate_chi_lifts": _count_lifts,
    "invariants.orbifold_euler": _count_euler,
}


def orbitop_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "orbitop" or name.startswith("orbitop."))
    ]


def install(recorder: Recorder) -> dict[str, list[str]]:
    """Wrap every function in LAYERS; return, per span, the binding sites
    (module.attribute or Class.method) that now hold the wrapper."""
    importlib.import_module("orbitop.cli")
    sites: dict[str, list[str]] = {}
    for layer, name, owner, attr in LAYERS:
        key = f"{layer}.{name}"
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            setattr(cls, attr, recorder.wrap(key, getattr(cls, attr), COUNTERS.get(key)))
            sites[key] = [f"{module_name}.{class_name}.{attr}"]
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(key, original, COUNTERS.get(key))
        sites[key] = []
        for mod in orbitop_modules():
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapped)
                    sites[key].append(f"{mod.__name__}.{binding}")
    return sites


def self_times(spans) -> dict[str, list[int]]:
    """Per span name: [calls, self ns].  Self time is a span's duration
    minus the durations of its direct children; spans nest, because the
    traced program runs on one thread."""
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[int]] = {}
    for (name, start, end, _), inner in zip(spans, child):
        entry = out.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += end - start - inner
    return out


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print("usage: tracer.py SPANS.json JOB_ID -- CLI ARGS...", file=sys.stderr)
        return 2
    out_path, job_id, _, *argv = sys.argv[1:]
    recorder = Recorder()
    install(recorder)
    from orbitop import cli

    try:
        code = recorder.wrap(ROOT_SPAN, cli.main)(argv)
    finally:
        Path(out_path).write_text(
            json.dumps(
                {"job": job_id, "spans": recorder.spans, "counters": recorder.counters}
            )
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
