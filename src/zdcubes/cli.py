"""Command-line front end.

Reports are JSON on stdout (sorted keys, no timings unless --timings), so
identical inputs and flags give byte-identical output.  Exit codes: 0 pass,
1 property failure (a witness is in the report), 2 hypotheses unmet, 3 input
error.
"""

from __future__ import annotations

import json
import sys
import time

import click

from . import battery
from .affine import (affine_to_text, discretize, formula_equivalence_test,
                     matcond_check, parse_affine, validate_affine)
from .cube_engine import CubeSet, enumerate_K, enumerate_Q, ucpp_check
from .errors import HypothesisError, InputError
from .finite_system import (PairRelation, check_factor_map, is_minimal,
                            parse_finite_system, to_text, validate)
from .proximal import (check_equivalence, compute_R, compute_R_j,
                       maximal_ucpp_factor)
from .return_times import PeriodicSet, d_joining, phi_image, return_set
from .structure import (SubgroupSpec, decompose, factor_isomorphism_check,
                        maximal_trivial_H_factor, relative_independence_check)

_KINDS = ("finite-system", "affine-system", "periodic-set", "cube-set",
          "pair-relation")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc), path=path)


def detect_kind(text: str, path: str | None = None) -> str:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head in _KINDS:
            return head
        raise InputError(f"unrecognized header {head!r}", path=path, line=1)
    raise InputError("empty file", path=path)


def _load_system(path: str, strict: bool = True):
    text = _read(path)
    kind = detect_kind(text, path)
    if kind != "finite-system":
        raise InputError(f"expected a finite-system file, found {kind}", path=path)
    return parse_finite_system(text, path=path, strict=strict)


def _load_affine(path: str):
    text = _read(path)
    kind = detect_kind(text, path)
    if kind != "affine-system":
        raise InputError(f"expected an affine-system file, found {kind}", path=path)
    return parse_affine(text, path=path)


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
# the two entry operations; click wrappers below delegate here


def cmd_validate(path: str) -> tuple[dict, int]:
    """Parse and validate a system file of either kind."""
    text = _read(path)
    kind = detect_kind(text, path)
    if kind == "finite-system":
        sys_ = parse_finite_system(text, path=path, strict=False)
        rep = validate(sys_)
        report = {
            "command": "validate", "input": path, "kind": kind,
            "valid": rep.ok,
            "bijective": list(rep.bijective),
            "commuting": rep.commuting,
            "witness": list(rep.commute_witness) if rep.commute_witness else None,
            "orders": list(rep.orders) if rep.orders else None,
            "minimal": is_minimal(sys_).ok if rep.ok else None,
            "status": "pass" if rep.ok else "fail",
        }
        return report, 0 if rep.ok else 1
    if kind == "affine-system":
        asys = parse_affine(text, path=path)
        rep = validate_affine(asys)
        report = {
            "command": "validate", "input": path, "kind": kind,
            "valid": rep.ok,
            "unipotent": list(rep.unipotent),
            "nilpotency_index": list(rep.nilpotency_index),
            "mats_commute": rep.mats_commute,
            "translations_compatible": rep.translations_compatible,
            "witness": list(rep.mat_witness or rep.trans_witness or ()) or None,
            "status": "pass" if rep.ok else "fail",
        }
        return report, 0 if rep.ok else 1
    if kind == "periodic-set":
        ps = PeriodicSet.from_text(text, path=path)
        return {"command": "validate", "input": path, "kind": kind,
                "valid": True, "k": ps.k, "moduli": list(ps.moduli),
                "residues": len(ps.residues), "status": "pass"}, 0
    if kind == "cube-set":
        cs = CubeSet.from_text(text, path=path)
        return {"command": "validate", "input": path, "kind": kind,
                "valid": True, "k": cs.k, "size": len(cs),
                "status": "pass"}, 0
    rel = PairRelation.from_text(text, path=path)
    return {"command": "validate", "input": path, "kind": kind,
            "valid": True, "pairs": len(rel.pairs), "status": "pass"}, 0


def cmd_analyze(path: str, subcommand: str, flags: dict) -> tuple[dict, int]:
    """Dispatch one analysis subcommand; returns (report, exit code)."""
    if subcommand == "cubes":
        sys_ = _load_system(path)
        dirs = tuple(range(1, sys_.d + 1))
        Q = enumerate_Q(sys_, dirs)
        report = {"command": "cubes", "input": path,
                  "dirs": list(dirs), "Q_size": len(Q),
                  "Q_sha256": Q.text_sha256(), "status": "pass"}
        base = flags.get("basepoint")
        if base is not None:
            K = enumerate_K(sys_, dirs, base)
            report["basepoint"] = base
            report["K_size"] = len(K)
            report["K_sha256"] = K.text_sha256()
            if flags.get("dump"):
                report["K_text"] = K.to_text()
        if flags.get("dump"):
            report["Q_text"] = Q.to_text()
        return report, 0

    if subcommand == "ucpp":
        text = _read(path)
        kind = detect_kind(text, path)
        if kind == "cube-set":
            cubes = CubeSet.from_text(text, path=path)
        else:
            sys_ = _load_system(path)
            cubes = enumerate_Q(sys_, tuple(range(1, sys_.d + 1)))
        verdict = ucpp_check(cubes)
        report = {"command": "ucpp", "input": path, "ucpp": verdict.ok,
                  "Q_size": len(cubes),
                  "witness": None if verdict.ok else {
                      "pair": [list(verdict.pair[0]), list(verdict.pair[1])],
                      "vertex": verdict.vertex},
                  "status": "pass" if verdict.ok else "fail"}
        return report, 0 if verdict.ok else 1

    if subcommand == "rpp":
        sys_ = _load_system(path)
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

    if subcommand == "quotient":
        sys_ = _load_system(path)
        relation = flags.get("relation", "rpp")
        if relation == "rpp":
            try:
                q_sys, pi = maximal_ucpp_factor(sys_)
            except HypothesisError as exc:
                return {"command": "quotient", "input": path,
                        "relation": relation, "status": "hypotheses-unmet",
                        "reason": str(exc)}, 2
        elif relation == "qh":
            gens = flags.get("gens")
            if not gens:
                raise InputError("--relation qh needs --gens")
            H = SubgroupSpec(dirs=tuple(gens), words=())
            q_sys, pi = maximal_trivial_H_factor(sys_, H)
        else:
            raise InputError(f"unknown relation {relation!r}")
        rep = check_factor_map(pi)
        report = {"command": "quotient", "input": path, "relation": relation,
                  "gens": list(flags.get("gens") or []) or None,
                  "classes": q_sys.n_points,
                  "factor_map_ok": rep.ok,
                  "mapping": list(pi.mapping),
                  "quotient_text": to_text(q_sys),
                  "status": "pass" if rep.ok else "fail"}
        return report, 0 if rep.ok else 1

    if subcommand == "structure":
        sys_ = _load_system(path)
        base = flags.get("basepoint") or 0
        dec = decompose(sys_, base)
        report = {"command": "structure", "input": path, "basepoint": base,
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
        iso = [factor_isomorphism_check(sys_, base, j)
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

    if subcommand == "affine-check":
        asys = _load_affine(path)
        rep = validate_affine(asys)
        mat = matcond_check(asys)
        report = {"command": "affine-check", "input": path,
                  "valid": rep.ok,
                  "unipotent": list(rep.unipotent),
                  "nilpotency_index": list(rep.nilpotency_index),
                  "mats_commute": rep.mats_commute,
                  "translations_compatible": rep.translations_compatible,
                  "product_zero": mat.product_zero,
                  "translation_zero": list(mat.translation_zero),
                  "conditions_ok": mat.all_ok,
                  "status": "pass" if rep.ok else "fail"}
        return report, 0 if rep.ok else 1

    if subcommand == "formula-test":
        asys = _load_affine(path)
        res = formula_equivalence_test(asys, n_range=flags.get("range", 3),
                                       q=flags.get("q"))
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

    if subcommand == "discretize":
        asys = _load_affine(path)
        q = flags.get("q") or asys.lattice_denominator()
        fs = discretize(asys, q, mode=flags.get("mode", "orbit"))
        out = flags.get("out")
        text = to_text(fs)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        report = {"command": "discretize", "input": path, "q": q,
                  "mode": flags.get("mode", "orbit"),
                  "points": fs.n_points, "orders": list(fs.orders),
                  "output": out, "status": "pass"}
        if not out:
            report["system_text"] = text
        return report, 0

    if subcommand == "return-times":
        sys_ = _load_system(path)
        point = flags.get("point") or 0
        target = flags.get("target")
        U = frozenset(target) if target else frozenset({point})
        N = return_set(sys_, point, U)
        img = phi_image(N)
        report = {"command": "return-times", "input": path,
                  "point": point, "target": sorted(U),
                  "moduli": list(N.moduli),
                  "residues": sorted(list(r) for r in N.residues),
                  "density": list(N.density()),
                  "sum_image_text": img.to_text(),
                  "set_text": N.to_text(), "status": "pass"}
        return report, 0

    raise InputError(f"unknown subcommand {subcommand!r}")


def cmd_joining(paths: tuple[str, ...]) -> tuple[dict, int]:
    sets = []
    for p in paths:
        text = _read(p)
        kind = detect_kind(text, p)
        if kind != "periodic-set":
            raise InputError(f"expected a periodic-set file, found {kind}", path=p)
        sets.append(PeriodicSet.from_text(text, path=p))
    joined = d_joining(sets)
    report = {"command": "joining", "inputs": list(paths),
              "d": len(sets), "empty": joined.is_empty(),
              "moduli": list(joined.moduli),
              "residues": sorted(list(r) for r in joined.residues),
              "set_text": joined.to_text(), "status": "pass"}
    return report, 0


def cmd_verify(path: str, threads: int = 1) -> tuple[dict, int]:
    """Every battery applicable to the file.  The second parameter is kept
    for callers that pass it; it has no effect."""
    text = _read(path)
    kind = detect_kind(text, path)
    items: list[dict] = []
    if kind == "finite-system":
        sys_ = parse_finite_system(text, path=path, strict=False)
        rt = parse_finite_system(to_text(sys_), strict=False)
        items.append(battery._pass_fail("roundtrip", rt.perms == sys_.perms))
        items += battery.system_battery(sys_)
    elif kind == "affine-system":
        asys = parse_affine(text, path=path)
        rt = parse_affine(affine_to_text(asys))
        items.append(battery._pass_fail(
            "roundtrip", rt.mats == asys.mats and rt.alphas == asys.alphas))
        items += battery.affine_battery(asys)
    elif kind == "periodic-set":
        items += battery.pset_battery(PeriodicSet.from_text(text, path=path))
    elif kind == "cube-set":
        cs = CubeSet.from_text(text, path=path)
        rt = CubeSet.from_text(cs.to_text())
        items.append(battery._pass_fail(
            "roundtrip", rt.points == cs.points and rt.dirs == cs.dirs))
        items.append(battery._item("census", "pass", None, size=len(cs),
                                   sha256=cs.text_sha256()))
    else:
        rel = PairRelation.from_text(text, path=path)
        rt = PairRelation.from_text(rel.to_text())
        items.append(battery._pass_fail("roundtrip", rt.pairs == rel.pairs))
    code = _items_code(items)
    report = {"command": "verify", "input": path, "kind": kind,
              "checks": items,
              "counts": {
                  "pass": sum(i["status"] == "pass" for i in items),
                  "fail": sum(i["status"] == "fail" for i in items),
                  "skipped": sum(i["status"] == "skipped" for i in items)},
              "status": "pass" if code == 0 else "fail"}
    return report, code


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


@main.command("validate")
@click.argument("path", type=click.Path())
@_common
def validate_cmd(path, human, timings):
    """Parse a file and check its invariants."""
    _run(lambda: cmd_validate(path), human, timings)


@main.command("cubes")
@click.argument("path", type=click.Path())
@click.option("--basepoint", type=int, default=None,
              help="also enumerate the based set at this point")
@click.option("--dump", is_flag=True, help="embed full listings in the report")
@_common
def cubes_cmd(path, basepoint, dump, human, timings):
    """Cube-set census over the full direction list."""
    _run(lambda: cmd_analyze(path, "cubes",
                             {"basepoint": basepoint, "dump": dump}),
         human, timings)


@main.command("ucpp")
@click.argument("path", type=click.Path())
@_common
def ucpp_cmd(path, human, timings):
    """Unique-completion verdict for a system or a raw cube-set file."""
    _run(lambda: cmd_analyze(path, "ucpp", {}), human, timings)


@main.command("rpp")
@click.argument("path", type=click.Path())
@_common
def rpp_cmd(path, human, timings):
    """Directional relations, their intersection, and the five-way battery."""
    _run(lambda: cmd_analyze(path, "rpp", {}), human, timings)


@main.command("quotient")
@click.argument("path", type=click.Path())
@click.option("--relation", type=click.Choice(["rpp", "qh"]), default="rpp",
              show_default=True)
@click.option("--gens", default=None,
              help="comma-separated generator directions for --relation qh")
@_common
def quotient_cmd(path, relation, gens, human, timings):
    """Quotient by the intersection relation or by a subgroup relation."""
    _run(lambda: cmd_analyze(path, "quotient",
                             {"relation": relation,
                              "gens": _int_list(gens, "--gens")}),
         human, timings)


@main.command("structure")
@click.argument("path", type=click.Path())
@click.option("--basepoint", type=int, default=0, show_default=True)
@_common
def structure_cmd(path, basepoint, human, timings):
    """Joining decomposition of the based cube set with its checks."""
    _run(lambda: cmd_analyze(path, "structure", {"basepoint": basepoint}),
         human, timings)


@main.command("affine-check")
@click.argument("path", type=click.Path())
@_common
def affine_check_cmd(path, human, timings):
    """Validation and matrix conditions of an affine system."""
    _run(lambda: cmd_analyze(path, "affine-check", {}), human, timings)


@main.command("formula-test")
@click.argument("path", type=click.Path())
@click.option("--range", "n_range", type=int, default=3, show_default=True,
              help="test every exponent vector in [-R, R]^d")
@click.option("--q", type=int, default=None,
              help="lattice denominator (default: from the translations)")
@_common
def formula_test_cmd(path, n_range, q, human, timings):
    """Closed form against direct iteration on the full rational lattice."""
    _run(lambda: cmd_analyze(path, "formula-test", {"range": n_range, "q": q}),
         human, timings)


@main.command("discretize")
@click.argument("path", type=click.Path())
@click.option("--q", type=int, default=None,
              help="lattice denominator (default: from the translations)")
@click.option("-o", "--out", type=click.Path(), default=None,
              help="write the finite system here instead of embedding it")
@click.option("--mode", type=click.Choice(["orbit", "full"]), default="orbit",
              show_default=True)
@_common
def discretize_cmd(path, q, out, mode, human, timings):
    """Restrict an affine system to a finite rational lattice."""
    _run(lambda: cmd_analyze(path, "discretize",
                             {"q": q, "out": out, "mode": mode}),
         human, timings)


@main.command("return-times")
@click.argument("path", type=click.Path())
@click.option("--point", type=int, default=0, show_default=True)
@click.option("--target", default=None,
              help="comma-separated point ids (default: the point itself)")
@_common
def return_times_cmd(path, point, target, human, timings):
    """Return-time set of a point into a neighborhood, as a periodic set."""
    _run(lambda: cmd_analyze(path, "return-times",
                             {"point": point,
                              "target": _int_list(target, "--target")}),
         human, timings)


@main.command("joining")
@click.argument("paths", type=click.Path(), nargs=-1, required=True)
@_common
def joining_cmd(paths, human, timings):
    """d-joining of d periodic sets of dimension d-1."""
    _run(lambda: cmd_joining(paths), human, timings)


@main.command("verify")
@click.argument("path", type=click.Path())
@_common
def verify_cmd(path, human, timings):
    """Every battery applicable to the input file."""
    _run(lambda: cmd_verify(path), human, timings)


if __name__ == "__main__":
    main()
