"""Check batteries shared by the verify command and the test suite.

Every check produces one JSON-ready item

    {"check": name, "status": "pass" | "fail" | "skipped",
     "witness": ..., "detail": {...}}

"fail" means a property the input was expected to satisfy did not hold.
"skipped" marks hypothesis-gated checks on inputs that do not meet the
hypotheses; a battery with skips and no failures is still clean.  All
counts and witnesses are deterministic, so serialized batteries are
byte-identical from run to run.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .affine import (AffineZdSystem, discretize, formula_equivalence_test,
                     matcond_check, validate_affine)
from .cube_engine import (RowIndex, enumerate_K, enumerate_Q,
                          face_group_generators, face_group_orbit, row_keys,
                          section_of, ucpp_check)
from .errors import InputError
from .finite_system import (FiniteZdSystem, check_factor_map, is_minimal,
                            validate)
from .hypercube import Vertex, digit_permute
from .proximal import (check_equivalence, compute_R, compute_R_j,
                       compute_R_j_reordered, maximal_ucpp_factor,
                       pushforward_check, sections)
from .return_times import (PeriodicSet, contains_zero_vector, d_joining,
                           joining_containment_check, phi_image,
                           product_system_realization, return_set)
from .structure import (SubgroupSpec, decompose, factor_isomorphism_check,
                        iterated_quotient_check, maximal_trivial_H_factor,
                        relative_independence_check, z0h_universality_check)


def _item(check: str, status: str, witness=None, **detail) -> dict:
    return {"check": check, "status": status, "witness": witness,
            "detail": dict(sorted(detail.items()))}


def _pass_fail(check: str, ok: bool, witness=None, **detail) -> dict:
    return _item(check, "pass" if ok else "fail",
                 witness if not ok else None, **detail)


def _full_dirs(sys: FiniteZdSystem) -> tuple[int, ...]:
    return tuple(range(1, sys.d + 1))


# ---------------------------------------------------------------------------
# surgery closures, exhaustive
#
# Each surgery reads every coordinate of its result from one coordinate of
# one input, so over an array of cube tuples it is a column-index gather.
# Pairs are formed by sorted face-key joins and expanded PAIR_CHUNK at a
# time, in the order a nested loop over the rows of Q would visit them, so the
# first witness and every count match that loop.

PAIR_CHUNK = 1 << 20


def _face_cols(d: int, j: int, b: int) -> list[int]:
    return [m for m in range(1 << d) if (m >> (j - 1)) & 1 == b]


def _pair_chunks(counts: np.ndarray):
    """Owner i holds counts[i] consecutive pairs; yields (owner, rank) index
    arrays for the pairs in order, PAIR_CHUNK at a time."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    starts = ends - counts
    for t0 in range(0, total, PAIR_CHUNK):
        t = np.arange(t0, min(t0 + PAIR_CHUNK, total))
        owner = np.searchsorted(ends, t, side="right")
        yield owner, t - starts[owner]


def _pair_gather(rows: np.ndarray, a: np.ndarray, b: np.ndarray,
                 take_b: list[bool], cols: list[int]) -> np.ndarray:
    """Result coordinate m reads rows[b, cols[m]] if take_b[m], else
    rows[a, cols[m]]."""
    out = np.empty((len(a), len(cols)), dtype=rows.dtype)
    for m, (from_b, c) in enumerate(zip(take_b, cols)):
        out[:, m] = rows[b if from_b else a, c]
    return out


def _first_missing(index: RowIndex, rows: np.ndarray) -> int | None:
    _, found = index.find(rows)
    return None if found.all() else int(np.argmin(found))


def surgery_battery(sys: FiniteZdSystem) -> list[dict]:
    """Closure of the full cube set under gluing, insertion, duplication,
    projection, digit permutation and reflection.  Every eligible input pair
    or tuple is tried; no sampling."""
    d = sys.d
    n = sys.n_points
    dirs = _full_dirs(sys)
    width = 1 << d
    Q = enumerate_Q(sys, dirs)
    rows = Q.to_array()
    index = RowIndex(rows, n)
    items = []

    # glue: a's upper j-face against b's lower j-face, a then b in Q order
    checked = 0
    witness = None
    for j in dirs:
        bit = 1 << (j - 1)
        lower = row_keys(rows[:, _face_cols(d, j, 0)], n)
        upper = row_keys(rows[:, _face_cols(d, j, 1)], n)
        order = np.argsort(lower, kind="stable")
        lower = lower[order]
        first = np.searchsorted(lower, upper, side="left")
        counts = np.searchsorted(lower, upper, side="right") - first
        checked += int(counts.sum())
        if witness is not None:
            continue
        take_b = [bool(m & bit) for m in range(width)]
        for a, rank in _pair_chunks(counts):
            b = order[first[a] + rank]
            miss = _first_missing(index, _pair_gather(rows, a, b, take_b,
                                                      list(range(width))))
            if miss is not None:
                witness = [j, rows[a[miss]].tolist(), rows[b[miss]].tolist()]
                break
    items.append(_pass_fail("glue_closure", witness is None, witness,
                            pairs=checked))

    # insert: pairs coinciding in the j-upper face, both sides; buckets in
    # order of first appearance, members in Q order
    checked = 0
    witness = None
    for j in dirs:
        bit = 1 << (j - 1)
        upper = row_keys(rows[:, _face_cols(d, j, 1)], n)
        _, first, inverse, sizes = np.unique(
            upper, return_index=True, return_inverse=True, return_counts=True)
        by_first = np.argsort(first)
        rank = np.empty(len(first), dtype=np.intp)
        rank[by_first] = np.arange(len(first))
        members = np.argsort(rank[inverse], kind="stable")
        sizes = sizes[by_first]
        starts = np.cumsum(sizes) - sizes
        checked += 2 * int((sizes * sizes).sum())
        if witness is not None:
            continue
        sides = []
        for side in ("upper", "lower"):
            keep = bit if side == "upper" else 0
            take_b = [(m & bit) == keep for m in range(width)]
            sides.append((side, take_b,
                          [m if t else m ^ bit for m, t in enumerate(take_b)]))
        for g, r in _pair_chunks(sizes * sizes):
            a = members[starts[g] + r // sizes[g]]
            b = members[starts[g] + r % sizes[g]]
            found = [index.find(_pair_gather(rows, a, b, take_b, cols))[1]
                     for _, take_b, cols in sides]
            bad = ~(found[0] & found[1])
            if bad.any():
                i = int(np.argmax(bad))
                side = sides[0][0] if not found[0][i] else sides[1][0]
                witness = [j, side, rows[a[i]].tolist(), rows[b[i]].tolist()]
                break
    items.append(_pass_fail("insert_closure", witness is None, witness,
                            pairs=checked))

    # duplicate: every proper nonempty direction subset
    checked = 0
    witness = None
    for k in range(1, d):
        for sub in combinations(dirs, k):
            Qs = enumerate_Q(sys, sub)
            checked += len(Qs)
            if witness is not None:
                continue
            slots = [dirs.index(j) for j in sub]
            cols = [sum(((m >> s) & 1) << ell for ell, s in enumerate(slots))
                    for m in range(width)]
            miss = _first_missing(index, Qs.to_array()[:, cols])
            if miss is not None:
                witness = [list(sub), Qs.to_array()[miss].tolist()]
    items.append(_pass_fail("duplicate_closure", witness is None, witness,
                            points=checked))

    # project: pin each direction to each side
    checked = 0
    witness = None
    if d >= 2:
        rest_index = {
            j: RowIndex(enumerate_Q(sys, tuple(i for i in dirs if i != j))
                        .to_array(), n)
            for j in dirs
        }
        for j in dirs:
            for b in (0, 1):
                checked += len(Q)
                if witness is not None:
                    continue
                miss = _first_missing(rest_index[j],
                                      rows[:, _face_cols(d, j, b)])
                if miss is not None:
                    witness = [j, b, rows[miss].tolist()]
    items.append(_pass_fail("project_closure", witness is None, witness,
                            points=checked))

    # digit permutation: Q over (sigma(1)..sigma(d)) maps onto Q over (1..d)
    checked = 0
    witness = None
    for sigma in permutations(range(1, d + 1)):
        src = enumerate_Q(sys, sigma)
        checked += 1
        cols = [digit_permute(sigma, Vertex(m, d)).mask for m in range(width)]
        if witness is None and not index.same_set(src.to_array()[:, cols]):
            witness = list(sigma)
    items.append(_pass_fail("digit_permute_bijection", witness is None, witness,
                            permutations=checked))

    # reflection: flipping any digit permutes the set
    witness = None
    for j in dirs:
        flipped = [m ^ (1 << (j - 1)) for m in range(width)]
        if witness is None and not index.same_set(rows[:, flipped]):
            witness = j
    items.append(_pass_fail("reflect_invariance", witness is None, witness,
                            directions=d))
    return items


# ---------------------------------------------------------------------------
# cube set structure


def cube_battery(sys: FiniteZdSystem) -> list[dict]:
    d = sys.d
    dirs = _full_dirs(sys)
    Q = enumerate_Q(sys, dirs)
    minimal = is_minimal(sys).ok
    items = [_item("census", "pass", None,
                   Q_size=len(Q), n_points=sys.n_points, d=d,
                   minimal=minimal, Q_sha256=Q.text_sha256())]

    if d >= 2:
        u = ucpp_check(Q)
        items.append(_pass_fail(
            "ucpp", u.ok,
            None if u.ok else [list(u.pair[0]), list(u.pair[1]), u.vertex]))
    else:
        items.append(_item("ucpp", "skipped", None, reason="needs d >= 2"))

    rows = Q.to_array()
    index = RowIndex(rows, sys.n_points)
    diagonal = np.repeat(np.arange(sys.n_points), Q.width).reshape(-1, Q.width)
    witness = _first_missing(index, diagonal)
    items.append(_pass_fail("diagonal_membership", witness is None, witness,
                            points=sys.n_points))

    witness = None
    for j in dirs:
        pairs = enumerate_Q(sys, (j,)).to_array()
        miss = _first_missing(RowIndex(pairs, sys.n_points), pairs[:, ::-1])
        if miss is not None:
            witness = [j] + pairs[miss].tolist()
            break
    items.append(_pass_fail("single_direction_symmetry", witness is None, witness))

    gens = face_group_generators(sys, dirs)
    witness = None
    for g in gens:
        miss = _first_missing(index, g.apply_rows(sys, dirs, rows))
        if miss is not None:
            witness = [list(g.face), list(g.diag), rows[miss].tolist()]
            break
    items.append(_pass_fail("face_group_invariance", witness is None, witness,
                            generators=len(gens)))

    orbit = face_group_orbit(Q, rows[0])
    if minimal:
        items.append(_pass_fail("orbit_covers_when_minimal",
                                len(orbit) == len(Q), None,
                                orbit=len(orbit), cubes=len(Q)))
    else:
        items.append(_item("orbit_covers_when_minimal", "skipped", None,
                           orbit=len(orbit), cubes=len(Q),
                           reason="system is not minimal"))

    K = enumerate_K(sys, dirs, 0)
    sec = section_of(Q, 0)
    items.append(_pass_fail("section_consistency",
                            np.array_equal(K.to_array(), sec.to_array()), None,
                            K_size=len(K), K_sha256=K.text_sha256()))
    return items


# ---------------------------------------------------------------------------
# proximality relations


def five_way_battery(sys: FiniteZdSystem) -> tuple[bool, int, list | None]:
    """All five membership formulations on every pair at once; returns
    (agree everywhere, pairs checked, first disagreement with its flags)."""
    dirs = _full_dirs(sys)
    Q = enumerate_Q(sys, dirs)
    rels = [compute_R_j(sys, j).pairs for j in dirs]
    sec = sections(Q)
    rows = Q.to_array()
    # (x, y) with (x, y, .., y) in Q
    constant = (rows[:, 1:] == rows[:, 1:2]).all(axis=1)
    tails = set(map(tuple, rows[constant, :2].tolist()))
    checked = 0
    for x in range(sys.n_points):
        sx = sec.get(x, frozenset())
        for y in range(sys.n_points):
            sy = sec.get(y, frozenset())
            conds = (
                all((x, y) in r for r in rels),
                (x, y) in tails,
                bool(sx & sy),
                sx == sy,
                any((x, y) in r for r in rels),
            )
            checked += 1
            if len(set(conds)) != 1:
                return False, checked, [x, y, list(conds)]
    return True, checked, None


def proximal_battery(sys: FiniteZdSystem) -> list[dict]:
    dirs = _full_dirs(sys)
    minimal = is_minimal(sys).ok
    items = []

    witness = None
    for j in dirs:
        a = compute_R_j(sys, j)
        b = compute_R_j_reordered(sys, j)
        if a.pairs != b.pairs:
            witness = j
            break
    items.append(_pass_fail("relation_order_independence", witness is None,
                            witness))

    R = compute_R(sys)
    eq = check_equivalence(R)
    if minimal:
        items.append(_pass_fail(
            "r_equivalence_invariance", eq.ok,
            None if eq.ok else {
                "reflexive": eq.refl_witness, "symmetric": eq.sym_witness,
                "transitive": eq.trans_witness,
                "invariant": list(eq.inv_witness[0]) + [eq.inv_witness[1]]
                if eq.inv_witness else None},
            pairs=len(R), diagonal=R.is_diagonal()))
    else:
        items.append(_item("r_equivalence_invariance",
                           "pass" if eq.ok else "skipped", None,
                           pairs=len(R), diagonal=R.is_diagonal()))

    if minimal:
        agree, checked, witness = five_way_battery(sys)
        items.append(_pass_fail("five_way_agreement", agree, witness,
                                pairs=checked))
        q_sys, pi = maximal_ucpp_factor(sys)
        rep = check_factor_map(pi)
        uq = ucpp_check(enumerate_Q(q_sys, dirs)) if q_sys.d >= 2 else None
        Rq = compute_R(q_sys)
        items.append(_pass_fail(
            "ucpp_quotient", rep.ok and (uq is None or uq.ok) and Rq.is_diagonal(),
            None, quotient_points=q_sys.n_points))
        push = pushforward_check(pi)
        items.append(_pass_fail(
            "relation_pushforward", push.equal,
            None if push.equal else {"missing": push.missing,
                                     "escaped": push.escaped},
            source_pairs=push.source_size, target_pairs=push.target_size))
    else:
        items.append(_item("five_way_agreement", "skipped", None,
                           reason="system is not minimal"))
        items.append(_item("ucpp_quotient", "skipped", None,
                           reason="system is not minimal"))
        items.append(_item("relation_pushforward", "skipped", None,
                           reason="system is not minimal"))
    return items


# ---------------------------------------------------------------------------
# structure: trivial-action quotients and the joining decomposition


def structure_battery(sys: FiniteZdSystem, x0: int = 0) -> list[dict]:
    d = sys.d
    minimal = is_minimal(sys).ok
    items = []
    if d < 2:
        return [_item("decompose_injective", "skipped", None,
                      reason="needs d >= 2")]

    for j in _full_dirs(sys):
        H = SubgroupSpec(dirs=(j,), words=())
        q_sys, pi = maximal_trivial_H_factor(sys, H)
        rep = check_factor_map(pi)
        status, witness = z0h_universality_check(pi, H)
        items.append(_pass_fail(
            f"trivial_action_quotient_T{j}",
            rep.ok and status == "pass",
            None if status == "pass" else list(witness or ()),
            classes=q_sys.n_points))
    if d >= 2:
        res = iterated_quotient_check(sys, SubgroupSpec((1,), ()),
                                      SubgroupSpec((2,), ()))
        items.append(_pass_fail("iterated_quotient", res.ok, None,
                                classes=len(res.one_step_classes)))

    dec = decompose(sys, x0)
    if dec.hypotheses_met:
        items.append(_pass_fail(
            "decompose_injective", bool(dec.injective),
            None if dec.injective else [list(dec.injectivity_witness[0]),
                                        list(dec.injectivity_witness[1])],
            K_size=len(dec.K),
            side_sizes=[len(p.values) for p in dec.side_projections]))
        witness = None
        for j in _full_dirs(sys):
            r = factor_isomorphism_check(sys, x0, j)
            if not r.ok:
                witness = [j, r.witness]
                break
        items.append(_pass_fail("factor_isomorphism", witness is None, witness))
        ri = relative_independence_check(dec)
        items.append(_pass_fail(
            "relative_independence", ri.status == "pass",
            None if ri.status == "pass" else ri.witness and list(ri.witness),
            completions=ri.checked))
    else:
        why = "cube completion is not unique" if not dec.ucpp.ok \
            else "system is not minimal"
        for name in ("decompose_injective", "factor_isomorphism",
                     "relative_independence"):
            items.append(_item(name, "skipped", None, reason=why))
    return items


# ---------------------------------------------------------------------------
# return times


def return_battery(sys: FiniteZdSystem) -> list[dict]:
    items = []
    witness = None
    for x in (0, sys.n_points - 1):
        N = return_set(sys, x, {x})
        if not contains_zero_vector(N):
            witness = x
            break
    items.append(_pass_fail("zero_vector_return", witness is None, witness))

    if sys.d < 2:
        items.append(_item("joining_containment", "skipped", None,
                           reason="needs d >= 2"))
        items.append(_item("product_realization", "skipped", None,
                           reason="needs d >= 2"))
        return items

    jc = joining_containment_check(sys, 0)
    if jc.status == "hypotheses-unmet":
        items.append(_item("joining_containment", "skipped", None,
                           reason=jc.reason))
        items.append(_item("product_realization", "skipped", None,
                           reason=jc.reason))
        return items
    items.append(_pass_fail(
        "joining_containment",
        jc.status == "pass" and bool(jc.diagonal_identity), None,
        joining_density=list(jc.joining.density()),
        target_density=list(jc.target.density())))

    dec = decompose(sys, 0)
    factors = []
    for j in range(1, sys.d + 1):
        proj = dec.side_projections[j - 1]
        diag = (0,) * len(proj.positions)
        yj = proj.values.index(diag)
        factors.append((proj.system, yj, {yj}))
    try:
        pr = product_system_realization(factors)
    except InputError as exc:
        # the input is valid; only the derived product system is too big
        items.append(_item("product_realization", "skipped", None,
                           reason=f"budget: {exc}"))
        return items
    items.append(_pass_fail(
        "product_realization", pr.equal and pr.ucpp_ok, None,
        orbit=pr.system.n_points))
    return items


def system_battery(sys: FiniteZdSystem) -> list[dict]:
    """Everything that applies to one finite system."""
    v = validate(sys)
    items = [_pass_fail(
        "valid_system", v.ok,
        None if v.ok else list(v.commute_witness or ()),
        orders=list(sys.orders))]
    if not v.ok:
        return items
    items += cube_battery(sys)
    items += surgery_battery(sys)
    items += proximal_battery(sys)
    items += structure_battery(sys)
    items += return_battery(sys)
    return items


# ---------------------------------------------------------------------------
# affine systems and periodic sets


def affine_battery(asys: AffineZdSystem, *, n_range: int = 3) -> list[dict]:
    v = validate_affine(asys)
    items = [_pass_fail(
        "affine_valid", v.ok,
        None if v.ok else {"unipotent": list(v.unipotent),
                           "mats_commute": v.mats_commute,
                           "translations_compatible": v.translations_compatible},
        nilpotency=list(v.nilpotency_index))]
    if not v.ok:
        return items
    m = matcond_check(asys)
    items.append(_item("matrix_conditions", "pass", None,
                       product_zero=m.product_zero,
                       translation_zero=list(m.translation_zero),
                       all_ok=m.all_ok))
    ft = formula_equivalence_test(asys, n_range=n_range)
    detail = {"q": ft.q, "n_count": ft.n_count, "x_count": ft.x_count}
    if ft.status == "pass":
        items.append(_item("closed_form_agreement", "pass", None, **detail))
    elif ft.status == "witness":
        items.append(_item("closed_form_agreement", "pass",
                           {"n": list(ft.witness_n), "x": [str(c) for c in ft.witness_x]},
                           outcome="witness", **detail))
    else:
        items.append(_item("closed_form_agreement", "fail", None,
                           outcome=ft.status, **detail))
    # the matrix conditions are sufficient for the closed form
    if m.all_ok:
        items.append(_pass_fail("conditions_imply_formula", ft.status == "pass",
                                None, formula=ft.status))
    else:
        items.append(_item("conditions_imply_formula", "skipped", None,
                           reason="matrix conditions do not hold",
                           formula=ft.status))
    try:
        fs = discretize(asys, asys.lattice_denominator(), mode="orbit")
        ok = validate(fs).ok and is_minimal(fs).ok
        items.append(_pass_fail("discretized_orbit_valid", ok, None,
                                points=fs.n_points))
    except InputError as exc:
        items.append(_item("discretized_orbit_valid", "skipped", None,
                           reason=str(exc)))
    return items


def pset_battery(ps: PeriodicSet) -> list[dict]:
    items = []
    rt = PeriodicSet.from_text(ps.to_text())
    items.append(_pass_fail("roundtrip", rt.equals(ps), None,
                            k=ps.k, moduli=list(ps.moduli)))
    canon = ps.canonical()
    items.append(_pass_fail("canonical_equivalent", canon.equals(ps), None,
                            canonical_moduli=list(canon.moduli)))
    img = phi_image(ps)
    # residues are reduced into the moduli box, so they are its members
    sums = {(sum(r) % img.moduli[0],) for r in ps.residues}
    brute = {(s[0] % img.moduli[0],) for s in img.residues}
    items.append(_pass_fail("sum_image_consistency", sums == brute, None,
                            image_modulus=img.moduli[0]))
    return items
