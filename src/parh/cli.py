"""Batch command-line interface for the package.

Every report and verification in the library is reachable as a
subcommand.  Output is a human-readable text block by default or, with
--json, a machine-readable object carrying the same numbers.  Exit
status: 0 when every requested check passes, 1 when a verification
fails, 2 on a configuration error, 3 when a size cap or window escape
stops the computation.  Under --json, exits 2 and 3 of a command also
print {"error": "config"|"size_cap", "message", "limit", "requested"} on
stdout, with null for a limit or size the error does not carry, and a
size too large to print as the string "2^N or more"; so does a command
line that argparse rejects, when it contains --json.  All
randomized commands take an explicit --seed and are fully reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from pathlib import Path
from random import Random

from .exel import PartialGroupAlgebra
from .groupoid import (
    GROUPOID_ORDER_CAP,
    _set_str,
    b_module,
    build_groupoid,
    component_summary,
    components,
    induce_module,
    regular_module,
    section5_report,
    section6_report,
)
from .groups import (
    INTEGERS,
    NAMED_GROUP_NAMES,
    build_named_group,
    parse_cayley_table,
    regular_rep,
    trivial_rep,
)
from .homology import (
    HOMOLOGY_SIZE_CAP,
    check_transport_cap,
    group_cohomology,
    group_homology,
    partial_cohomology,
    partial_homology,
    verify_corollary_b,
    verify_theorem_a,
)
from .linalg import GF, QQ, Field, SizeCapError
from .zcase import (
    _check_window_cap,
    cancellation_decompose,
    ig_decompose,
    k_tensor_ig_vanishes,
    quotient_check,
    random_cancellation_instance,
    random_ig_element,
    verify_f_relations,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CAP = 3

_SCHEMAS = {
    "groups list": {"groups": "[{name, order}]"},
    "groups show": {"name": "str", "order": "int", "elements": "[str]",
                    "table": "[[str]]", "inverses": "{str: str}"},
    "kpar dim": {"group": "str", "dim": "int"},
    "kpar basis": {"group": "str", "dim": "int", "basis": "[str]"},
    "groupoid components": {"group": "str", "components": "[{base, vertices, "
                            "stabilizer_order, stabilizer, block_dimension}]",
                            "sum_of_blocks": "int", "algebra_dimension": "int",
                            "equal": "bool"},
    "homology partial|cohomology": {"group": "str", "module": "str",
                                    "field": "str", "method": "str",
                                    "dims": "[int]", "checks": "{str: bool}",
                                    "expected": "[int]?", "ok": "bool"},
    "homology ordinary": {"group": "str", "module": "str", "field": "str",
                          "method": "str", "dims": "[int]",
                          "checks": "{str: bool?}", "expected": "[int]?",
                          "ok": "bool"},
    "verify theorem-a": {"group": "str", "component_base": "str",
                         "stabilizer": "str", "stabilizer_order": "int",
                         "field": "str", "max_degree": "int",
                         "homology": "{partial, ordinary, equal, "
                                     "first_mismatch}",
                         "cohomology": "{partial, ordinary, equal, "
                                       "first_mismatch}",
                         "ok": "bool"},
    "verify corollary-b": {"group": "str", "field": "str", "max_degree": "int",
                           "dims_bar": "[int]", "dims_sum": "[int]",
                           "equal": "bool", "cohomology": "{dims_bar, "
                           "dims_sum, equal}",
                           "components": "[{base, stabilizer_order, "
                           "homology, cohomology}]", "ok": "bool"},
    "verify section5": {"group": "str", "field": "str",
                        "components": "[{component, base, "
                        "section_identity, tensor}]",
                        "ok": "bool"},
    "verify section6": {"group": "str", "field": "str",
                        "components": "[{component, base, support_full, "
                        "section_identity, multiplicative, module_map}]",
                        "ok": "bool"},
    "verify kpar-coeff-vanishing": {"group": "str", "module": "str",
                                    "field": "str", "method": "str",
                                    "dims": "[int]", "checks": "{str: bool}",
                                    "vanishing": "bool", "ok": "bool"},
    "z relations": {"bound": "int", "field": "str", "checked": "int",
                    "failures": "[{...}]", "ok": "bool"},
    "z quotient": {"k": "int", "N": "int", "field": "str",
                   "domain_bound": "int", "domain_dim": "int",
                   "s1_dim": "int", "s2_dim": "int", "vk_rank": "int",
                   "s2_in_s1": "bool", "s1_in_s2": "bool",
                   "violations": "[{direction, element}]", "ok": "bool"},
    "z cancellation": {"ring": "str", "count": "int", "max_k": "int",
                       "seed": "int", "failures": "[int]", "ok": "bool"},
    "z ig-decompose": {"count": "int", "bound": "int", "seed": "int",
                       "failures": "int", "sample": "{int: str}",
                       "tensor_vanishing": "bool", "ok": "bool"},
    "error (exit 2 or 3)": {"error": "config|size_cap", "message": "str",
                            "limit": "int?", "requested": "int|str?"},
}


class _UsageError(Exception):
    """A command-line parse error, after argparse printed its usage."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        try:
            super().error(message)
        except SystemExit:
            raise _UsageError(message) from None


class _SchemaAction(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        print(json.dumps(_SCHEMAS, indent=2))
        parser.exit(0)


def _parse_field(spec: str) -> Field:
    s = spec.strip()
    if s.upper() == "Q":
        return QQ
    body = None
    if s.upper().startswith("FP:"):
        body = s[3:]
    elif s.upper().startswith("F"):
        body = s[1:]
    if body is not None and body.isdigit():
        return GF(int(body))
    raise ValueError(f"unknown field {spec!r}; use Q, F<p>, or Fp:<p>")


def _load_group(args):
    if getattr(args, "table", None):
        path = Path(args.table)
        return parse_cayley_table(path.read_text(), name=path.stem)
    if args.group is None:
        raise ValueError("this command needs --group or --table")
    return build_named_group(args.group)


def _components_of(group, cap):
    return components(build_groupoid(group, cap=cap))


def _pick_component(comps, index):
    if index is None:
        raise ValueError("this command needs --component (an index; "
                         "see `parh groupoid components`)")
    if not 0 <= index < len(comps):
        raise ValueError(
            f"component index {index} out of range (0..{len(comps) - 1})")
    return comps[index]


def _module_for(args, group, field):
    """The module --module names, and its name, refused before it is
    built if its transported complex exceeds --max-columns.

    The check reads the closed-form dimension: 2^(|G|-1) subsets for B,
    dim K_par G for the regular module, component size times the
    representation's dimension for W⊗trivial and W⊗regular.  The groupoid
    cap and the component index come first; --max < 0 is left to the
    pipelines' degree check.
    """
    spec = args.module.replace("⊗", "x").lower()
    if spec == "b":
        name, dim = "B", 2 ** (group.order - 1)
        build = partial(b_module, group, field)
    elif spec == "regular":
        name, dim = "regular", PartialGroupAlgebra(group).dimension()
        build = partial(regular_module, group, field, args.max_group_order)
        if group.order > args.max_group_order:
            return build(), name  # refused by the groupoid cap
    elif spec in ("wxtrivial", "wxregular"):
        comps = _components_of(group, args.max_group_order)
        comp = _pick_component(comps, args.component)
        kind = spec[2:]
        rep = (trivial_rep if kind == "trivial" else regular_rep)(
            comp.stabilizer, field)
        name = f"W(x){kind} at component {args.component}"
        dim = comp.size * next(iter(rep.values())).nrows
        build = partial(induce_module, comp, rep, field)
    else:
        raise ValueError(
            f"unknown module {args.module!r}; use B, regular, W⊗trivial, "
            "or W⊗regular")
    if args.max >= 0:
        check_transport_cap(group, dim, args.max + 1, args.max_columns)
    return build(), name


def _parse_dims(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"bad dimension list {text!r}; use e.g. 2,1,1,1")


def _bool_word(flag: bool) -> str:
    return "true" if flag else "false"


# ---------------------------------------------------------------------------
# Command handlers.  Each returns (data, text_lines, ok).


def cmd_groups_list(args):
    rows = []
    lines = []
    for name in NAMED_GROUP_NAMES:
        order = build_named_group(name).order
        rows.append({"name": name, "order": order})
        lines.append(f"{name:8s} order {order}")
    return {"groups": rows}, lines, True


def cmd_groups_show(args):
    group = _load_group(args)
    names = [group.element_name(i) for i in range(group.order)]
    table = [[group.element_name(group.mult(i, j)) for j in range(group.order)]
             for i in range(group.order)]
    inverses = {names[i]: group.element_name(group.inv(i))
                for i in range(group.order)}
    width = max(len(n) for n in names)
    lines = [f"{group.name}: order {group.order}",
             "elements: " + " ".join(names),
             "table:"]
    for i, row in enumerate(table):
        lines.append(f"  {names[i]:{width}s} | "
                     + " ".join(f"{v:{width}s}" for v in row))
    lines.append("inverses: "
                 + " ".join(f"{a}->{b}" for a, b in inverses.items()))
    data = {"name": group.name, "order": group.order, "elements": names,
            "table": table, "inverses": inverses}
    return data, lines, True


def cmd_kpar_dim(args):
    group = _load_group(args)
    dim = PartialGroupAlgebra(group).dimension()
    return ({"group": group.name, "dim": dim},
            [f"dim K_par {group.name} = {dim}"], True)


def cmd_kpar_basis(args):
    group = _load_group(args)
    algebra = PartialGroupAlgebra(group)
    dim = algebra.dimension()
    if dim > HOMOLOGY_SIZE_CAP:
        raise SizeCapError(f"K_par {group.name} has {dim} basis elements, "
                           f"cap is {HOMOLOGY_SIZE_CAP}",
                           limit=HOMOLOGY_SIZE_CAP, requested=dim)
    basis = [s.render() for s in algebra.canonical_basis()]
    lines = [f"dim K_par {group.name} = {len(basis)}"] + basis
    return ({"group": group.name, "dim": len(basis), "basis": basis},
            lines, True)


def cmd_groupoid_components(args):
    group = _load_group(args)
    data = component_summary(build_groupoid(group, cap=args.max_group_order))
    lines = [f"{group.name}: {len(data['components'])} components"]
    for c in data["components"]:
        lines.append(
            f"  base {c['base']:20s} vertices {c['vertices']:3d}  "
            f"stabilizer {c['stabilizer']} (order {c['stabilizer_order']})  "
            f"block {c['block_dimension']}")
    lines.append(
        f"sum of blocks {data['sum_of_blocks']} = algebra dimension "
        f"{data['algebra_dimension']}: {_bool_word(data['equal'])}")
    return data, lines, data["equal"]


def _homology_common(args, fn, symbol):
    group = _load_group(args)
    field = _parse_field(args.field)
    v_mod, mod_name = _module_for(args, group, field)
    report = fn(group, v_mod, max_degree=args.max, cap=args.max_columns,
                module_name=mod_name)
    return _dims_result(
        args, report, symbol,
        f"{group.name}, module {mod_name}, field {field.name}, "
        f"method {report.method}",
        [f"  check {name}: {_bool_word(bool(value))}"
         for name, value in report.checks.items()],
        all(bool(v) for v in report.checks.values()))


def _dims_result(args, report, symbol, header, check_lines, ok):
    """The dimension lines, then check_lines, then the --expect-dims verdict."""
    data = report.as_dict()
    lines = [header]
    for i, d in enumerate(report.dims):
        lines.append(f"  {symbol}{i} dimension {d}")
    lines.extend(check_lines)
    if args.expect_dims is not None:
        expected = _parse_dims(args.expect_dims)
        data["expected"] = expected
        hit = report.dims == expected
        lines.append(f"  expected {expected}: {_bool_word(hit)}")
        ok = ok and hit
    data["ok"] = ok
    return data, lines, ok


def cmd_homology_partial(args):
    return _homology_common(args, partial_homology, "H_")


def cmd_homology_cohomology(args):
    return _homology_common(args, partial_cohomology, "H^")


def cmd_homology_ordinary(args):
    group = _load_group(args)
    field = _parse_field(args.field)
    rep = trivial_rep if args.rep == "trivial" else regular_rep
    fn = group_cohomology if args.co else group_homology
    symbol = "H^" if args.co else "H_"
    report = fn(group, rep(group, field), field, args.max,
                cap=args.max_columns)
    return _dims_result(
        args, report, symbol,
        f"{group.name}, {args.rep} coefficients, field {field.name}, "
        f"method {report.method}",
        [], all(v for v in report.checks.values() if v is not None))


def cmd_verify_theorem_a(args):
    group = _load_group(args)
    field = _parse_field(args.field)
    comps = _components_of(group, args.max_group_order)
    comp = _pick_component(comps, args.component)
    rep = trivial_rep if args.rep == "trivial" else regular_rep
    report = verify_theorem_a(group, comp, rep(comp.stabilizer, field),
                              field, args.max, cap=args.max_columns)
    lines = [
        f"{group.name}, component {args.component} at {report['component_base']}, "
        f"stabilizer {report['stabilizer']} (order {report['stabilizer_order']}), "
        f"{args.rep} coefficients, field {field.name}",
        f"  homology   partial {report['homology']['partial']} vs ordinary "
        f"{report['homology']['ordinary']}: "
        + _bool_word(report["homology"]["equal"]),
        f"  cohomology partial {report['cohomology']['partial']} vs ordinary "
        f"{report['cohomology']['ordinary']}: "
        + _bool_word(report["cohomology"]["equal"]),
        f"  ok: {_bool_word(report['ok'])}",
    ]
    return report, lines, report["ok"]


def cmd_verify_corollary_b(args):
    group = _load_group(args)
    field = _parse_field(args.field)
    inner = verify_corollary_b(group, field, args.max, cap=args.max_columns,
                               group_cap=args.max_group_order)
    data = {
        "group": inner["group"],
        "field": inner["field"],
        "max_degree": inner["max_degree"],
        "dims_bar": inner["homology"]["partial"],
        "dims_sum": inner["homology"]["stabilizer_sum"],
        "equal": inner["homology"]["equal"],
        "cohomology": {
            "dims_bar": inner["cohomology"]["partial"],
            "dims_sum": inner["cohomology"]["stabilizer_sum"],
            "equal": inner["cohomology"]["equal"],
        },
        "components": inner["components"],
        "ok": inner["ok"],
    }
    lines = [
        f"{group.name}, field {field.name}, degrees 0..{args.max}",
        f"  homology   bar {data['dims_bar']} vs stabilizer sum "
        f"{data['dims_sum']}: {_bool_word(data['equal'])}",
        f"  cohomology bar {data['cohomology']['dims_bar']} vs stabilizer sum "
        f"{data['cohomology']['dims_sum']}: "
        + _bool_word(data["cohomology"]["equal"]),
        f"  ok: {_bool_word(data['ok'])}",
    ]
    return data, lines, data["ok"]


def _verify_components(args, report, describe, row_ok, notes=()):
    """One {component, base, **report(comp, field)} row and line each."""
    group = _load_group(args)
    field = _parse_field(args.field)
    rows = []
    lines = [f"{group.name}, field {field.name}"]
    for k, comp in enumerate(_components_of(group, args.max_group_order)):
        row = {"component": k, "base": _set_str(group, comp.base),
               **report(comp, field)}
        rows.append(row)
        lines.append(f"  component {k} at {row['base']}: {describe(row)}")
    lines.extend(notes)
    ok = all(row_ok(r) for r in rows)
    lines.append(f"ok: {_bool_word(ok)}")
    return ({"group": group.name, "field": field.name, "components": rows,
             "ok": ok}, lines, ok)


def cmd_verify_section5(args):
    def describe(row):
        t = row["tensor"]
        return (f"section {_bool_word(row['section_identity'])}, tensor "
                f"dimension {t['dimension']} (expect {t['expected']}), "
                "stabilizer action trivial "
                f"{_bool_word(t['h_action_trivial'])}, maps inverse "
                + _bool_word(t["phi_psi_identity"] and t["psi_phi_identity"]))

    return _verify_components(
        args, section5_report, describe,
        lambda r: r["section_identity"] and r["tensor"]["ok"])


def cmd_verify_section6(args):
    def describe(row):
        return (f"section {_bool_word(row['section_identity'])}, "
                f"multiplicative {_bool_word(row['multiplicative'])}, "
                f"module map {_bool_word(row['module_map'])} "
                f"(support full: {_bool_word(row['support_full'])})")

    return _verify_components(
        args, section6_report, describe,
        lambda r: r["section_identity"] and r["multiplicative"]
        and r["module_map"],
        notes=["note: the lift is a module map on every component, "
               "whatever its support"])


def cmd_verify_kpar_vanishing(args):
    group = _load_group(args)
    field = _parse_field(args.field)
    v_mod, name = _module_for(args, group, field)
    report = partial_cohomology(group, v_mod, max_degree=args.max,
                                cap=args.max_columns, module_name=name)
    vanishing = all(d == 0 for d in report.dims[1:])
    data = report.as_dict() | {"vanishing": vanishing, "ok": vanishing}
    lines = [f"{group.name}, regular coefficients, field {field.name}"]
    for i, d in enumerate(report.dims):
        lines.append(f"  H^{i} dimension {d}")
    lines.append(f"vanishing in degrees 1..{args.max}: "
                 + _bool_word(vanishing))
    return data, lines, vanishing


def cmd_z_relations(args):
    field = _parse_field(args.field)
    report = verify_f_relations(args.bound, field)
    lines = [f"bound {args.bound}, field {field.name}: "
             f"{report['checked']} identities checked, "
             f"{len(report['failures'])} failures"]
    for f in report["failures"][:10]:
        lines.append(f"  failure: {f}")
    return report, lines, report["ok"]


def cmd_z_quotient(args):
    field = _parse_field(args.field)
    report = quotient_check(args.k, args.bound, field)
    lines = [
        f"k {report['k']}, window {report['N']}, field {field.name}, "
        f"domain window {report['domain_bound']} "
        f"({report['domain_dim']} monomials)",
        f"  level span rank {report['vk_rank']}",
        f"  s1 dimension {report['s1_dim']}, s2 dimension {report['s2_dim']}",
        f"  s2_in_s1 = {_bool_word(report['s2_in_s1'])}",
        f"  s1_in_s2 = {_bool_word(report['s1_in_s2'])}",
        f"  violations: {len(report['violations'])}",
    ]
    return report, lines, report["ok"]


def cmd_z_cancellation(args):
    field = _parse_field(args.field)
    group = INTEGERS if args.ring == "Z" else build_named_group(args.ring)
    if args.max_k < 1:
        raise ValueError(f"--max-k must be at least 1, got {args.max_k}")
    # each instance decomposes into a k x k matrix M
    _check_window_cap(args.max_k ** 2, "cancellation matrix", "entries")
    rng = Random(args.seed)
    failures = []
    for trial in range(args.count):
        k = rng.randint(1, args.max_k)
        es, rs = random_cancellation_instance(rng, k, group, field,
                                              args.bound)
        try:
            # raises unless the result is skew and reconstructs every r_i
            cancellation_decompose(es, rs)
        except RuntimeError:
            failures.append(trial)
    data = {"ring": args.ring, "count": args.count, "max_k": args.max_k,
            "seed": args.seed, "failures": failures, "ok": not failures}
    lines = [f"ring {args.ring}, {args.count} instances, k up to "
             f"{args.max_k}, seed {args.seed}: {len(failures)} failures"]
    return data, lines, not failures


def cmd_z_ig_decompose(args):
    field = _parse_field(args.field)
    rng = Random(args.seed)
    failures = 0
    sample = {}
    for trial in range(args.count):
        x = random_ig_element(rng, args.bound, field)
        try:
            out = ig_decompose(x)
        except RuntimeError:
            failures += 1
            continue
        if not sample and out:
            sample = {str(g): b.render() for g, b in sorted(out.items())}
    tensor = k_tensor_ig_vanishes(args.bound, field)
    ok = failures == 0 and tensor["ok"]
    data = {"count": args.count, "bound": args.bound, "seed": args.seed,
            "failures": failures, "sample": sample,
            "tensor_vanishing": tensor["ok"], "ok": ok}
    lines = [f"{args.count} round trips at bound {args.bound}, seed "
             f"{args.seed}: {failures} failures",
             f"scalar tensor functor kills the ideal: "
             + _bool_word(tensor["ok"])]
    if sample:
        lines.append("sample decomposition: "
                     + ", ".join(f"f_{g} coefficient {b}"
                                 for g, b in sample.items()))
    return data, lines, ok


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_group_options(p, default=None):
    p.add_argument("--group", default=default,
                   help=f"named group ({', '.join(NAMED_GROUP_NAMES)})")
    p.add_argument("--table", help="path to a Cayley table file")


def _add_common(p, *, field_default="Q"):
    p.add_argument("--field", default=field_default,
                   help="coefficient field: Q, F<p>, or Fp:<p>")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON object instead of text")


def _add_caps(p, group_order=True, columns=True):
    """The size caps a command's handler reads."""
    if group_order:
        p.add_argument("--max-group-order", type=int,
                       default=GROUPOID_ORDER_CAP,
                       help="refuse groupoid builds above this group order")
    if columns:
        p.add_argument("--max-columns", type=int, default=HOMOLOGY_SIZE_CAP,
                       help="refuse chain complexes above this column measure")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; argparse does
    not change a parser while it parses."""
    parser = _Parser(
        prog="parh",
        description="Exact computations in partial group algebras: "
                    "canonical forms, groupoid components, partial group "
                    "(co)homology, and the integer-case filtration.")
    parser.add_argument("--help-schema", action=_SchemaAction, nargs=0,
                        help="print the JSON schema of every report")
    sub = parser.add_subparsers(dest="command", required=True)

    groups = sub.add_parser("groups", help="group catalogue").add_subparsers(
        dest="sub", required=True)
    p = groups.add_parser("list", help="list the built-in groups")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_groups_list)
    p = groups.add_parser("show", help="Cayley table and inverses")
    _add_group_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_groups_show)

    kpar = sub.add_parser("kpar", help="the partial group algebra").add_subparsers(
        dest="sub", required=True)
    p = kpar.add_parser("dim", help="dimension of the algebra")
    _add_group_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_kpar_dim)
    p = kpar.add_parser("basis", help="canonical basis elements")
    _add_group_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_kpar_basis)

    gpd = sub.add_parser("groupoid", help="the subset groupoid").add_subparsers(
        dest="sub", required=True)
    p = gpd.add_parser("components", help="components and block dimensions")
    _add_group_options(p)
    p.add_argument("--json", action="store_true")
    _add_caps(p, columns=False)
    p.set_defaults(handler=cmd_groupoid_components)

    hom = sub.add_parser("homology", help="(co)homology pipelines").add_subparsers(
        dest="sub", required=True)
    for name, handler in (("partial", cmd_homology_partial),
                          ("cohomology", cmd_homology_cohomology)):
        p = hom.add_parser(name, help=f"partial group {name.replace('partial', 'homology')}")
        _add_group_options(p)
        _add_common(p)
        _add_caps(p)
        p.add_argument("--module", default="B",
                       help="B, regular, W⊗trivial, or W⊗regular")
        p.add_argument("--component", type=int,
                       help="component index for induced modules")
        p.add_argument("--max", type=int, default=2,
                       help="highest degree to compute")
        p.add_argument("--expect-dims",
                       help="comma-separated dims; mismatch exits 1")
        p.set_defaults(handler=handler)
    p = hom.add_parser("ordinary", help="classical group (co)homology")
    _add_group_options(p)
    _add_common(p)
    _add_caps(p, group_order=False)
    p.add_argument("--rep", choices=("trivial", "regular"), default="trivial")
    p.add_argument("--co", action="store_true", help="compute cohomology")
    p.add_argument("--max", type=int, default=2)
    p.add_argument("--expect-dims")
    p.set_defaults(handler=cmd_homology_ordinary)

    ver = sub.add_parser("verify", help="theorem cross-checks").add_subparsers(
        dest="sub", required=True)
    p = ver.add_parser("theorem-a",
                       help="partial (co)homology against the stabilizer")
    _add_group_options(p)
    _add_common(p)
    _add_caps(p)
    p.add_argument("--component", type=int, required=True)
    p.add_argument("--rep", choices=("trivial", "regular"), default="trivial")
    p.add_argument("--max", type=int, default=2)
    p.set_defaults(handler=cmd_verify_theorem_a)
    p = ver.add_parser("corollary-b",
                       help="idempotent coefficients against stabilizer sums")
    _add_group_options(p)
    _add_common(p)
    _add_caps(p)
    p.add_argument("--max", type=int, default=2)
    p.set_defaults(handler=cmd_verify_corollary_b)
    p = ver.add_parser("section5", help="vertex sections and tensor equivalence")
    _add_group_options(p)
    _add_common(p)
    _add_caps(p, columns=False)
    p.set_defaults(handler=cmd_verify_section5)
    p = ver.add_parser("section6", help="arrow lifts: section, products, and "
                                        "the module-map identity")
    _add_group_options(p)
    _add_common(p)
    _add_caps(p, columns=False)
    p.set_defaults(handler=cmd_verify_section6)
    p = ver.add_parser("kpar-coeff-vanishing",
                       help="higher cohomology with regular coefficients")
    _add_group_options(p)
    _add_common(p)
    _add_caps(p)
    p.add_argument("--max", type=int, default=2)
    p.set_defaults(handler=cmd_verify_kpar_vanishing, module="regular")

    z = sub.add_parser("z", help="integer-case identities").add_subparsers(
        dest="sub", required=True)
    p = z.add_parser("relations", help="exhaustive f-relations")
    _add_common(p)
    p.add_argument("--bound", type=int, default=5)
    p.set_defaults(handler=cmd_z_relations)
    p = z.add_parser("quotient", help="window check of the level quotient")
    _add_common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--bound", type=int, default=6, help="ambient window")
    p.set_defaults(handler=cmd_z_quotient)
    p = z.add_parser("cancellation", help="seeded skew-symmetric decompositions")
    _add_common(p)
    p.add_argument("--ring", choices=("Z",) + NAMED_GROUP_NAMES, default="Z")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-k", type=int, default=5)
    p.add_argument("--bound", type=int, default=3,
                   help="sampling window for coefficients")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_z_cancellation)
    p = z.add_parser("ig-decompose", help="seeded ideal decompositions")
    _add_common(p)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_z_ig_decompose)

    return parser


def _print_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc),
                      "limit": getattr(exc, "limit", None),
                      "requested": getattr(exc, "requested", None)}))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        if "--json" in (sys.argv[1:] if argv is None else argv):
            _print_error("config", exc)
        return EXIT_CONFIG
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    as_json = getattr(args, "json", False)
    try:
        if getattr(args, "count", 0) < 0:
            raise ValueError(f"--count must be nonnegative, got {args.count}")
        data, lines, ok = args.handler(args)
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        if as_json:
            _print_error("size_cap", exc)
        return EXIT_CAP
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if as_json:
            _print_error("config", exc)
        return EXIT_CONFIG
    if as_json:
        print(json.dumps(data))
    else:
        print("\n".join(lines))
    return EXIT_OK if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
