"""Workloads of the parh benchmark: seeded inputs, operations, pinned outputs.

Each workload is a fixed list of `parh` CLI operations, run once per pass.
The seed draws relabellings of S3 among the 20 distinct ones and the seed
of `z cancellation`.  The labels change the pivot order and so the run
time of the homology operations; `hom-s3` therefore reads the same five
tables for every seed, and the seed only orders them.  Every pinned value
below is independent of the labels.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


def s3_table() -> list[list[int]]:
    """Cayley table of S3 from permutation composition, identity at 0."""
    perms = sorted(itertools.permutations(range(3)))
    pos = {p: k for k, p in enumerate(perms)}
    return [[pos[tuple(p[q[x]] for x in range(3))] for q in perms]
            for p in perms]


def relabel(table: list[list[int]], new: list[int]) -> list[list[int]]:
    """The table with element i renamed new[i]."""
    out = [[0] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[new[i]][new[j]] = new[v]
    return out


def s3_relabellings() -> list[list[list[int]]]:
    """The distinct tables of S3 under relabellings that fix index 0.

    Relabelling by one of the 6 automorphisms gives the same table, so
    the 5! relabellings give 20 tables.
    """
    base = s3_table()
    tables = {str(t): t for t in (relabel(base, [0, *p]) for p in
                                  itertools.permutations(range(1, 6)))}
    return sorted(tables.values())


def table_text(table: list[list[int]]) -> str:
    """The table in the format `parh --table` reads."""
    rows = "\n".join(" ".join(map(str, row)) for row in table)
    return f"# relabelled S3\n{len(table)}\n{rows}\n"


@dataclass
class Op:
    """One CLI call, its name in reports, and the fields it must return."""

    name: str
    argv: list[str]
    expect: dict
    view: Callable[[dict], dict]


@dataclass
class Inputs:
    """What one run feeds the program: table files and a cancellation seed."""

    tables: list[str] = field(default_factory=list)
    z_seed: int = 0


def fixed_tables(rng: random.Random) -> list[list[list[int]]]:
    """Five of the 20 tables, the same for every seed, in a seeded order."""
    return rng.sample(s3_relabellings()[::4], 5)


def one_table(rng: random.Random) -> list[list[list[int]]]:
    """One of the 20 tables, drawn by the seed."""
    return [rng.choice(s3_relabellings())]


def build_inputs(seed: int, workdir: Path, parse_table, draw) -> Inputs:
    """Write the tables `draw` picks with the seed and draw the
    cancellation seed; validate every table with the program's parser."""
    rng = random.Random(seed)
    tables = draw(rng)
    inputs = Inputs(z_seed=rng.randrange(2**31))
    for i, table in enumerate(tables):
        path = workdir / f"s3_{seed}_{i}.txt"
        text = table_text(table)
        path.write_text(text)
        group = parse_table(text, name=path.stem)
        if group.order != 6 or group.table != table:
            raise RuntimeError(f"table {path.name} did not parse back")
        inputs.tables.append(str(path))
    return inputs


def _pick(*keys):
    def view(data: dict) -> dict:
        out = {}
        for key in keys:
            value = data
            for part in key.split("."):
                value = value[part]
            out[key] = value
        return out
    return view


def _section5_view(data: dict) -> dict:
    comps = data["components"]
    return {
        "ok": data["ok"],
        "section_identity": all(c["section_identity"] for c in comps),
        "tensor_ok": all(c["tensor"]["ok"] for c in comps),
        "tensor_dims": sorted(c["tensor"]["dimension"] for c in comps),
    }


S3_BAR_DIMS = [15, 0]
# Per-component tensor dimensions of B (x) K_delta on S3, one per vertex.
S3_TENSOR_DIMS = [1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 5]


def _label(table: str) -> str:
    return Path(table).stem


def _hom_bar_q(table: str) -> Op:
    return Op(f"verify corollary-b {_label(table)}",
              ["verify", "corollary-b", "--table", table, "--field", "Q",
               "--max", "1"],
              {"dims_bar": S3_BAR_DIMS, "dims_sum": S3_BAR_DIMS,
               "equal": True, "cohomology.dims_bar": S3_BAR_DIMS,
               "cohomology.dims_sum": S3_BAR_DIMS, "cohomology.equal": True,
               "ok": True},
              _pick("dims_bar", "dims_sum", "equal", "cohomology.dims_bar",
                    "cohomology.dims_sum", "cohomology.equal", "ok"))


def _hom_coeff_fp(table: str) -> Op:
    return Op(f"verify kpar-coeff-vanishing {_label(table)}",
              ["verify", "kpar-coeff-vanishing", "--table", table, "--field",
               "F3", "--max", "1"],
              {"dims": [32, 0], "checks": {"d2_zero": True,
                                              "homotopy_id": True},
               "vanishing": True, "ok": True},
              _pick("dims", "checks", "vanishing", "ok"))


def _hom_s3(inp: Inputs) -> list[Op]:
    return [op for table in inp.tables
            for op in (_hom_bar_q(table), _hom_coeff_fp(table))]


def _z_groupoid(inp: Inputs) -> list[Op]:
    table = inp.tables[0]
    return [
        Op("z quotient",
           ["z", "quotient", "--k", "2", "--bound", "8", "--field", "Q"],
           {"vk_rank": 5888, "s1_dim": 32, "s2_dim": 32, "s2_in_s1": True,
            "s1_in_s2": True, "violations": [], "ok": True},
           _pick("vk_rank", "s1_dim", "s2_dim", "s2_in_s1", "s1_in_s2",
                 "violations", "ok")),
        Op("z cancellation",
           ["z", "cancellation", "--count", "100", "--seed",
            str(inp.z_seed)],
           {"count": 100, "failures": [], "ok": True},
           _pick("count", "failures", "ok")),
        Op(f"verify section5 {_label(table)}",
           ["verify", "section5", "--table", table, "--field", "F5"],
           {"ok": True, "section_identity": True, "tensor_ok": True,
            "tensor_dims": S3_TENSOR_DIMS},
           _section5_view),
    ]


@dataclass
class Workload:
    """The operations of one pass, and how the seed picks their tables."""

    name: str
    ops: Callable[[Inputs], list[Op]]
    draw: Callable[[random.Random], list[list[list[int]]]]


# Two workloads, split by whether homology runs: every layer is exercised
# by one of them and bypassed by the other.  `hom-s3` reads the same five
# tables for every seed, because its run time depends strongly on the
# labels; `z-groupoid` reads the one table the seed draws.
WORKLOADS = {
    w.name: w for w in (
        Workload("hom-s3", _hom_s3, fixed_tables),
        Workload("z-groupoid", _z_groupoid, one_table),
    )
}


def mismatches(op: Op, data: dict) -> list[str]:
    """One line per pinned field that differs: name, expected, received."""
    try:
        got = op.view(data)
    except (KeyError, TypeError) as exc:
        return [f"{op.name}: output lacks {exc}"]
    return [f"{op.name}: {key} expected {want!r}, received {got.get(key)!r}"
            for key, want in op.expect.items() if got.get(key) != want]
