"""Command-line front end.

Reports are JSON on stdout (sorted keys, no timings unless --timings), so
identical inputs and flags give byte-identical output.  Exit codes: 0 pass,
1 property failure (a witness is in the report), 2 hypotheses unmet, 3 input
error.

Each command is one function `cmd_<name>(path, **flags)` returning (report,
exit code); `_command` registers it as the click command `<name>`, and
`cmd_analyze` calls an analysis command by name.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time

import click
import numpy as np

from . import battery
from .affine import (affine_to_text, discretize, formula_equivalence_test,
                     matcond_check, parse_affine, validate_affine)
from .cube_engine import CubeSet, enumerate_K, enumerate_Q, ucpp_check
from .errors import HypothesisError, InputError
from .finite_system import (PairRelation, _first_content_line,
                            check_factor_map, is_minimal, parse_finite_system,
                            to_text, validate)
from .proximal import (check_equivalence, compute_R, compute_R_j,
                       maximal_ucpp_factor)
from .return_times import PeriodicSet, d_joining, phi_image, return_set
from .structure import (SubgroupSpec, decompose, factor_isomorphism_check,
                        maximal_trivial_H_factor, relative_independence_check)

# the parser of each input kind; each entry looks its parser up by name when
# called, so the spans perfbench/tracing.py installs on those names see it.
# Strict parsing rejects a finite system whose generators do not commute.
_PARSERS = {
    "finite-system": lambda text, path, strict: parse_finite_system(
        text, path=path, strict=strict),
    "affine-system": lambda text, path, strict: parse_affine(text, path=path),
    "periodic-set": lambda text, path, strict: PeriodicSet.from_text(
        text, path=path),
    "cube-set": lambda text, path, strict: CubeSet.from_text(text, path=path),
    "pair-relation": lambda text, path, strict: PairRelation.from_text(
        text, path=path),
}


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc), path=path)


def detect_kind(text: str, path: str | None = None) -> str:
    first = _first_content_line(text)
    if first is None:
        raise InputError("empty file", path=path)
    head = first[1].split()[0]
    if head in _PARSERS:
        return head
    raise InputError(f"unrecognized header {head!r}", path=path, line=1)


def _load(path: str, *kinds: str, strict: bool = True):
    """(kind, parsed content) of the file at path; a file of a kind not
    listed is an input error that names the first kind listed."""
    text = _read(path)
    kind = detect_kind(text, path)
    if kind not in kinds:
        article = "an" if kinds[0].startswith("a") else "a"
        raise InputError(f"expected {article} {kinds[0]} file, found {kind}",
                         path=path)
    return kind, _PARSERS[kind](text, path, strict)


def _json_default(obj):
    return str(obj)


def _human_lines(report: dict) -> list[str]:
    out = [f"# {report['command']} {report.get('input', '')}".rstrip()]
    for item in report.get("checks", ()):
        line = f"{item['status'].upper():7s} {item['check']}"
        if item.get("witness") is not None:
            line += "  witness=" + json.dumps(item["witness"], default=_json_default)
        out.append(line)
    for key, value in sorted(report.items()):
        if key in ("command", "input", "checks", "status"):
            continue
        out.append(f"{key}: {json.dumps(value, sort_keys=True, default=_json_default)}")
    if "status" in report:
        out.append(f"status: {report['status']}")
    return out


def _emit(report: dict, code: int, human: bool, timings: float | None) -> None:
    if timings is not None:
        report = dict(report)
        report["timings"] = {"seconds": round(timings, 6)}
    if human:
        click.echo("\n".join(_human_lines(report)))
    else:
        click.echo(json.dumps(report, indent=2, sort_keys=True,
                              default=_json_default))
    sys.exit(code)


def _items_code(items: list[dict]) -> int:
    return 1 if any(i["status"] == "fail" for i in items) else 0


# ---------------------------------------------------------------------------
# click wiring


def _common(f):
    f = click.option("--human", is_flag=True, help="tabular text instead of JSON")(f)
    f = click.option("--threads", type=int, default=1, expose_value=False,
                     help="accepted for compatibility; has no effect")(f)
    f = click.option("--timings", is_flag=True,
                     help="append wall-clock timing to the report")(f)
    return f


def _int_list(text: str | None, option: str) -> tuple[int, ...] | None:
    """A comma-separated option value as integers; called inside _run so a
    malformed list is an input error."""
    if not text:
        return None
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"{option} takes comma-separated integers, got {text!r}")


_INT_LISTS = frozenset({"gens", "target"})  # options read by _int_list


def _run(fn, human: bool, timings: bool) -> None:
    t0 = time.perf_counter()
    try:
        report, code = fn()
    except InputError as exc:
        report = {"error": str(exc), "status": "input-error"}
        _emit(report, 3, human, time.perf_counter() - t0 if timings else None)
        return
    except HypothesisError as exc:
        report = {"error": str(exc), "status": "hypotheses-unmet"}
        _emit(report, 2, human, time.perf_counter() - t0 if timings else None)
        return
    _emit(report, code, human, time.perf_counter() - t0 if timings else None)


@click.group()
def main() -> None:
    """Exact cube-structure analysis of finite and affine Z^d-systems."""


def _command(*options):
    """Register the decorated cmd_<name> as the click command <name>: its
    first parameter is the path argument (`paths` takes one or more), the
    options give its keyword flags, its docstring is the help text."""
    def register(fn):
        arg = next(iter(inspect.signature(fn).parameters))

        def callback(human, timings, **flags):
            def call():
                for key in _INT_LISTS.intersection(flags):
                    flags[key] = _int_list(flags[key], f"--{key}")
                return fn(flags.pop(arg), **flags)
            _run(call, human, timings)

        f = _common(callback)
        for option in reversed(options):
            f = option(f)
        f = click.argument(arg, type=click.Path(), required=True,
                           nargs=-1 if arg == "paths" else 1)(f)
        main.command(fn.__name__[4:].replace("_", "-"), help=fn.__doc__)(f)
        return fn
    return register


# ---------------------------------------------------------------------------
# the commands


def _affine_fields(rep) -> dict:
    return {"valid": rep.ok,
            "unipotent": list(rep.unipotent),
            "nilpotency_index": list(rep.nilpotency_index),
            "mats_commute": rep.mats_commute,
            "translations_compatible": rep.translations_compatible}


@_command()
def cmd_validate(path: str) -> tuple[dict, int]:
    """Parse a file and check its invariants."""
    kind, obj = _load(path, *_PARSERS, strict=False)
    ok = True
    if kind == "finite-system":
        rep = validate(obj)
        ok = rep.ok
        fields = {
            "bijective": list(rep.bijective),
            "commuting": rep.commuting,
            "witness": list(rep.commute_witness) if rep.commute_witness else None,
            "orders": list(rep.orders) if rep.orders else None,
            "minimal": is_minimal(obj).ok if ok else None}
    elif kind == "affine-system":
        rep = validate_affine(obj)
        ok = rep.ok
        fields = {**_affine_fields(rep),
                  "witness": list(rep.mat_witness or rep.trans_witness or ())
                  or None}
    elif kind == "periodic-set":
        fields = {"k": obj.k, "moduli": list(obj.moduli),
                  "residues": len(obj.rows)}
    elif kind == "cube-set":
        fields = {"k": obj.k, "size": len(obj)}
    else:
        fields = {"pairs": len(obj.pairs)}
    return {"command": "validate", "input": path, "kind": kind, "valid": ok,
            **fields, "status": "pass" if ok else "fail"}, 0 if ok else 1


@_command(click.option("--basepoint", type=int, default=None,
                       help="also enumerate the based set at this point"),
          click.option("--dump", is_flag=True,
                       help="embed full listings in the report"))
def cmd_cubes(path: str, basepoint: int | None = None,
              dump: bool = False) -> tuple[dict, int]:
    """Cube-set census over the full direction list."""
    _, sys_ = _load(path, "finite-system")
    dirs = tuple(range(1, sys_.d + 1))
    Q = enumerate_Q(sys_, dirs)
    report = {"command": "cubes", "input": path,
              "dirs": list(dirs), "Q_size": len(Q),
              "Q_sha256": Q.text_sha256(), "status": "pass"}
    if basepoint is not None:
        K = enumerate_K(sys_, dirs, basepoint)
        report["basepoint"] = basepoint
        report["K_size"] = len(K)
        report["K_sha256"] = K.text_sha256()
        if dump:
            report["K_text"] = K.to_text()
    if dump:
        report["Q_text"] = Q.to_text()
    return report, 0


@_command()
def cmd_ucpp(path: str) -> tuple[dict, int]:
    """Unique-completion verdict for a system or a raw cube-set file."""
    kind, obj = _load(path, "finite-system", "cube-set")
    cubes = obj if kind == "cube-set" else enumerate_Q(
        obj, tuple(range(1, obj.d + 1)))
    verdict = ucpp_check(cubes)
    report = {"command": "ucpp", "input": path, "ucpp": verdict.ok,
              "Q_size": len(cubes),
              "witness": None if verdict.ok else {
                  "pair": [list(verdict.pair[0]), list(verdict.pair[1])],
                  "vertex": verdict.vertex},
              "status": "pass" if verdict.ok else "fail"}
    return report, 0 if verdict.ok else 1


@_command()
def cmd_rpp(path: str) -> tuple[dict, int]:
    """Directional relations, their intersection, and the five-way battery."""
    _, sys_ = _load(path, "finite-system")
    rels = [compute_R_j(sys_, j) for j in range(1, sys_.d + 1)]
    R = compute_R(sys_)
    eq = check_equivalence(R)
    report = {"command": "rpp", "input": path,
              "relation_sizes": [len(r) for r in rels],
              "intersection_size": len(R),
              "is_diagonal": R.is_diagonal(),
              "equivalence": eq.ok,
              "invariant": eq.invariant}
    if not is_minimal(sys_).ok:
        report["status"] = "hypotheses-unmet"
        report["reason"] = "system is not minimal"
        return report, 2
    agree, checked, witness = battery.five_way_battery(sys_)
    report["five_way_agreement"] = agree
    report["pairs_checked"] = checked
    report["witness"] = witness
    report["status"] = "pass" if agree and eq.ok else "fail"
    return report, 0 if agree and eq.ok else 1


@_command(click.option("--relation", type=click.Choice(["rpp", "qh"]),
                       default="rpp", show_default=True),
          click.option("--gens", default=None,
                       help="comma-separated generator directions for "
                       "--relation qh"))
def cmd_quotient(path: str, relation: str = "rpp",
                 gens: tuple[int, ...] | None = None) -> tuple[dict, int]:
    """Quotient by the intersection relation or by a subgroup relation."""
    _, sys_ = _load(path, "finite-system")
    if relation == "rpp":
        try:
            q_sys, pi = maximal_ucpp_factor(sys_)
        except HypothesisError as exc:
            return {"command": "quotient", "input": path,
                    "relation": relation, "status": "hypotheses-unmet",
                    "reason": str(exc)}, 2
    elif relation == "qh":
        if not gens:
            raise InputError("--relation qh needs --gens")
        H = SubgroupSpec(dirs=tuple(gens), words=())
        q_sys, pi = maximal_trivial_H_factor(sys_, H)
    else:
        raise InputError(f"unknown relation {relation!r}")
    rep = check_factor_map(pi)
    report = {"command": "quotient", "input": path, "relation": relation,
              "gens": list(gens or []) or None,
              "classes": q_sys.n_points,
              "factor_map_ok": rep.ok,
              "mapping": list(pi.mapping),
              "quotient_text": to_text(q_sys),
              "status": "pass" if rep.ok else "fail"}
    return report, 0 if rep.ok else 1


@_command(click.option("--basepoint", type=int, default=0, show_default=True))
def cmd_structure(path: str, basepoint: int = 0) -> tuple[dict, int]:
    """Joining decomposition of the based cube set with its checks."""
    _, sys_ = _load(path, "finite-system")
    dec = decompose(sys_, basepoint)
    report = {"command": "structure", "input": path, "basepoint": basepoint,
              "K_size": len(dec.K), "ucpp": dec.ucpp.ok,
              "minimal": dec.minimal,
              "side_sizes": [len(p.values) for p in dec.side_projections],
              "corner_sizes": {f"{i},{j}": len(p.values)
                               for (i, j), p in
                               sorted(dec.corner_projections.items())}}
    if not dec.hypotheses_met:
        report["status"] = "hypotheses-unmet"
        report["reason"] = ("cube completion is not unique"
                            if not dec.ucpp.ok else "system is not minimal")
        return report, 2
    iso = [factor_isomorphism_check(sys_, basepoint, j)
           for j in range(1, sys_.d + 1)]
    ri = relative_independence_check(dec)
    ok = bool(dec.injective) and all(r.ok for r in iso) \
        and ri.status == "pass"
    report["injective"] = dec.injective
    report["factor_isomorphisms"] = [r.ok for r in iso]
    report["relative_independence"] = ri.status
    report["witness"] = ri.witness and list(ri.witness)
    report["status"] = "pass" if ok else "fail"
    return report, 0 if ok else 1


@_command()
def cmd_affine_check(path: str) -> tuple[dict, int]:
    """Validation and matrix conditions of an affine system."""
    _, asys = _load(path, "affine-system")
    rep = validate_affine(asys)
    mat = matcond_check(asys)
    report = {"command": "affine-check", "input": path,
              **_affine_fields(rep),
              "product_zero": mat.product_zero,
              "translation_zero": list(mat.translation_zero),
              "conditions_ok": mat.all_ok,
              "status": "pass" if rep.ok else "fail"}
    return report, 0 if rep.ok else 1


@_command(click.option("--range", type=int, default=3, show_default=True,
                       help="test every exponent vector in [-R, R]^d"),
          click.option("--q", type=int, default=None,
                       help="lattice denominator (default: from the "
                       "translations)"))
def cmd_formula_test(path: str, range: int = 3,
                     q: int | None = None) -> tuple[dict, int]:
    """Closed form against direct iteration on the full rational lattice."""
    _, asys = _load(path, "affine-system")
    res = formula_equivalence_test(asys, n_range=range, q=q)
    report = {"command": "formula-test", "input": path,
              "result": res.status, "q": res.q,
              "n_range": res.n_range, "n_count": res.n_count,
              "x_count": res.x_count,
              "witness": None}
    if res.status == "witness":
        report["witness"] = {
            "n": list(res.witness_n),
            "x": [str(c) for c in res.witness_x],
            "iterated": [str(c) for c in res.lhs],
            "closed_form": [str(c) for c in res.rhs]}
        report["status"] = "fail"
        return report, 1
    if res.status == "inconclusive":
        report["status"] = "hypotheses-unmet"
        return report, 2
    report["status"] = "pass"
    return report, 0


@_command(click.option("--q", type=int, default=None,
                       help="lattice denominator (default: from the "
                       "translations)"),
          click.option("-o", "--out", type=click.Path(), default=None,
                       help="write the finite system here instead of "
                       "embedding it"),
          click.option("--mode", type=click.Choice(["orbit", "full"]),
                       default="orbit", show_default=True))
def cmd_discretize(path: str, q: int | None = None, out: str | None = None,
                   mode: str = "orbit") -> tuple[dict, int]:
    """Restrict an affine system to a finite rational lattice."""
    _, asys = _load(path, "affine-system")
    q = q or asys.lattice_denominator()
    fs = discretize(asys, q, mode=mode)
    text = to_text(fs)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    report = {"command": "discretize", "input": path, "q": q, "mode": mode,
              "points": fs.n_points, "orders": list(fs.orders),
              "output": out, "status": "pass"}
    if not out:
        report["system_text"] = text
    return report, 0


@_command(click.option("--point", type=int, default=0, show_default=True),
          click.option("--target", default=None,
                       help="comma-separated point ids (default: the point "
                       "itself)"))
def cmd_return_times(path: str, point: int = 0,
                     target: tuple[int, ...] | None = None
                     ) -> tuple[dict, int]:
    """Return-time set of a point into a neighborhood, as a periodic set."""
    _, sys_ = _load(path, "finite-system")
    U = frozenset(target) if target else frozenset({point})
    N = return_set(sys_, point, U)
    img = phi_image(N)
    report = {"command": "return-times", "input": path,
              "point": point, "target": sorted(U),
              "moduli": list(N.moduli),
              "residues": N.rows.tolist(),
              "density": list(N.density()),
              "sum_image_text": img.to_text(),
              "set_text": N.to_text(), "status": "pass"}
    return report, 0


@_command()
def cmd_joining(paths: tuple[str, ...]) -> tuple[dict, int]:
    """d-joining of d periodic sets of dimension d-1."""
    sets = [_load(p, "periodic-set")[1] for p in paths]
    joined = d_joining(sets)
    report = {"command": "joining", "inputs": list(paths),
              "d": len(sets), "empty": joined.is_empty(),
              "moduli": list(joined.moduli),
              "residues": joined.rows.tolist(),
              "set_text": joined.to_text(), "status": "pass"}
    return report, 0


@_command()
def cmd_verify(path: str, threads: int = 1) -> tuple[dict, int]:
    """Every battery applicable to the input file.\f

    The second parameter is kept for callers that pass it; it has no
    effect."""
    kind, obj = _load(path, *_PARSERS, strict=False)
    items: list[dict] = []
    if kind == "finite-system":
        rt = parse_finite_system(to_text(obj), strict=False)
        items.append(battery._pass_fail("roundtrip", rt.perms == obj.perms))
        items += battery.system_battery(obj)
    elif kind == "affine-system":
        rt = parse_affine(affine_to_text(obj))
        items.append(battery._pass_fail(
            "roundtrip", rt.mats == obj.mats and rt.alphas == obj.alphas))
        items += battery.affine_battery(obj)
    elif kind == "periodic-set":
        items += battery.pset_battery(obj)
    elif kind == "cube-set":
        cs_text = obj.to_text()  # the census hashes the roundtrip's text
        rt = CubeSet.from_text(cs_text)
        items.append(battery._pass_fail(
            "roundtrip",
            rt.dirs == obj.dirs and np.array_equal(rt.rows, obj.rows)))
        items.append(battery._item(
            "census", "pass", None, size=len(obj),
            sha256=hashlib.sha256(cs_text.encode("ascii")).hexdigest()))
    else:
        rt = PairRelation.from_text(obj.to_text())
        items.append(battery._pass_fail("roundtrip", rt.pairs == obj.pairs))
    code = _items_code(items)
    report = {"command": "verify", "input": path, "kind": kind,
              "checks": items,
              "counts": {
                  "pass": sum(i["status"] == "pass" for i in items),
                  "fail": sum(i["status"] == "fail" for i in items),
                  "skipped": sum(i["status"] == "skipped" for i in items)},
              "status": "pass" if code == 0 else "fail"}
    return report, code


_ANALYSES = {f.__name__[4:].replace("_", "-"): f
             for f in (cmd_cubes, cmd_ucpp, cmd_rpp, cmd_quotient,
                       cmd_structure, cmd_affine_check, cmd_formula_test,
                       cmd_discretize, cmd_return_times)}


def cmd_analyze(path: str, subcommand: str, flags: dict) -> tuple[dict, int]:
    """Run one analysis command by name with the given flags (a `threads`
    key is ignored); returns (report, exit code)."""
    fn = _ANALYSES.get(subcommand)
    if fn is None:
        raise InputError(f"unknown subcommand {subcommand!r}")
    return fn(path, **{k: v for k, v in flags.items() if k != "threads"})


if __name__ == "__main__":
    main()
