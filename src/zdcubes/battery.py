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
from ._arrays import _chunked_ranks, _distinct, _find_keys, _first, _same
from .cube_engine import (CubeSet, RowIndex, enumerate_K, enumerate_Q,
                          face_group_orbit, section_of, ucpp_check)
from .errors import InputError
from .finite_system import (FiniteZdSystem, check_factor_map, is_minimal,
                            partition, validate)
from .hypercube import face, flip, restrict
from .proximal import (_R_equivalence, compute_R, compute_R_j,
                       compute_R_j_reordered, keep_reordered_relation,
                       maximal_ucpp_factor, pushforward_check, sections)
from .return_times import (PeriodicSet, contains_zero_vector,
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


# ---------------------------------------------------------------------------
# surgery closures: a certificate per direction, or every pair
#
# Each surgery reads every coordinate of its result from one coordinate of
# one input, so over an array of cube tuples it is a column-index gather.
# Glue and insert in direction j are first decided by a count over the rows
# (_faces_equivalent).  Where it fails, pairs are formed by sorted face-id
# joins and expanded PAIR_CHUNK at a time, in the order a nested loop over
# the rows of Q would visit them, so the first witness and every count match
# that loop.

PAIR_CHUNK = 1 << 20


def _face_ids(Q: CubeSet, faces: tuple[list[int], list[int]]
              ) -> tuple[np.ndarray, np.ndarray, int]:
    """(lower, upper, count): the ids of each row's lower and upper face
    (the vertex lists faces), numbered 0..count-1 in the order of their row
    keys."""
    keys = [Q.column_keys(f) for f in faces]
    distinct, ids = np.unique(np.concatenate(keys), return_inverse=True)
    return ids[:len(Q)], ids[len(Q):], len(distinct)


def _faces_equivalent(lower: np.ndarray, upper: np.ndarray, faces: int) -> bool:
    """Whether the rows, read as pairs (lower face, upper face), form an
    equivalence relation on the faces.  Exactly then are glue and insert in
    that direction closed: insert gives the pairs (L, L), (U, U) and (U, L),
    glue gives transitivity, and an equivalence relation is closed under
    both.

    Every pair lies inside a class of the equivalence the pairs generate,
    and distinct rows are distinct pairs, so the pairs fill class x class
    for every class exactly when they number the sum of the squared class
    sizes."""
    sizes = np.bincount(partition(faces, lower, upper))
    return len(lower) == int((sizes * sizes).sum())


def _pair_gather(rows: np.ndarray, faces: tuple[list[int], list[int]],
                 a: np.ndarray, a_cols: list[int],
                 b: np.ndarray, b_cols: list[int]) -> np.ndarray:
    """The tuples whose lower face (faces[0]) reads rows a at a_cols and
    whose upper face (faces[1]) reads rows b at b_cols, vertex by vertex."""
    out = np.empty((len(a), rows.shape[1]), dtype=rows.dtype)
    for ids, dest, cols in ((a, faces[0], a_cols), (b, faces[1], b_cols)):
        for m, c in zip(dest, cols):
            out[:, m] = rows[ids, c]
    return out


def _first_missing(index: RowIndex, rows: np.ndarray) -> int | None:
    return _first(~index.find(rows)[1])


def _glue_witness(rows: np.ndarray, index: RowIndex, j: int,
                  faces: tuple[list[int], list[int]], lower: np.ndarray,
                  upper: np.ndarray, below: np.ndarray) -> list | None:
    """The first pair (a, b) of rows, a then b in Q order, with a's upper
    j-face equal to b's lower one whose glue leaves Q, as [j, a, b].  below
    counts the rows over each lower face id."""
    order = np.argsort(lower, kind="stable")
    first = (np.cumsum(below) - below)[upper]
    for a, rank in _chunked_ranks(below[upper], PAIR_CHUNK):
        b = order[first[a] + rank]
        miss = _first_missing(index, _pair_gather(rows, faces, a, faces[0],
                                                  b, faces[1]))
        if miss is not None:
            return [j, rows[a[miss]].tolist(), rows[b[miss]].tolist()]
    return None


def _insert_witness(rows: np.ndarray, index: RowIndex, j: int,
                    faces: tuple[list[int], list[int]], upper: np.ndarray
                    ) -> list | None:
    """The first pair (a, b) of rows coinciding in the upper j-face whose
    insertion leaves Q on either side, as [j, side, a, b]: a's upper face
    on both sides of b's, or b's lower face on both sides of a's.  Buckets
    of equal upper faces go in order of first appearance, members in Q
    order."""
    low, high = faces
    _, first, inverse, sizes = np.unique(
        upper, return_index=True, return_inverse=True, return_counts=True)
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.intp)
    rank[by_first] = np.arange(len(first))
    members = np.argsort(rank[inverse], kind="stable")
    sizes = sizes[by_first]
    starts = np.cumsum(sizes) - sizes
    for g, r in _chunked_ranks(sizes * sizes, PAIR_CHUNK):
        a = members[starts[g] + r // sizes[g]]
        b = members[starts[g] + r % sizes[g]]
        found = [index.find(_pair_gather(rows, faces, a, high, b, high))[1],
                 index.find(_pair_gather(rows, faces, b, low, a, low))[1]]
        bad = ~(found[0] & found[1])
        if bad.any():
            i = int(np.argmax(bad))
            side = "upper" if not found[0][i] else "lower"
            return [j, side, rows[a[i]].tolist(), rows[b[i]].tolist()]
    return None


def surgery_battery(sys: FiniteZdSystem) -> list[dict]:
    """Closure of the full cube set under gluing, insertion, duplication,
    projection, digit permutation and reflection.  No sampling: glue and
    insert in a direction are decided by the face-equivalence count, or,
    where that fails, by trying every eligible pair; the other surgeries
    map every row."""
    d = sys.d
    dirs = sys.dirs
    Q = enumerate_Q(sys, dirs)
    rows, index = Q.rows, Q.index
    items = []

    # glue and insert, direction by direction; the pair counts are closed
    # forms over the face ids
    glued = inserted = 0
    glue_witness = insert_witness = None
    for j in dirs:
        faces = face(d, j, 0), face(d, j, 1)
        lower, upper, count = _face_ids(Q, faces)
        below = np.bincount(lower, minlength=count)
        glued += int(below[upper].sum())
        inserted += 2 * int((np.bincount(upper) ** 2).sum())
        if _faces_equivalent(lower, upper, count):
            continue
        if glue_witness is None:
            glue_witness = _glue_witness(rows, index, j, faces, lower, upper,
                                         below)
        if insert_witness is None:
            insert_witness = _insert_witness(rows, index, j, faces, upper)
    items.append(_pass_fail("glue_closure", glue_witness is None, glue_witness,
                            pairs=glued))
    items.append(_pass_fail("insert_closure", insert_witness is None,
                            insert_witness, pairs=inserted))

    # duplicate: every proper nonempty direction subset
    checked = 0
    witness = None
    for k in range(1, d):
        for sub in combinations(dirs, k):
            Qs = enumerate_Q(sys, sub)
            checked += len(Qs)
            if witness is not None:
                continue
            miss = _first_missing(index, Qs.rows[:, restrict(d, sub)])
            if miss is not None:
                witness = [list(sub), Qs.rows[miss].tolist()]
    items.append(_pass_fail("duplicate_closure", witness is None, witness,
                            points=checked))

    # project: pin each direction to each side
    checked = 0
    witness = None
    if d >= 2:
        rest_index = {j: enumerate_Q(sys, tuple(i for i in dirs if i != j)).index
                      for j in dirs}
        for j in dirs:
            for b in (0, 1):
                checked += len(Q)
                if witness is not None:
                    continue
                miss = _first_missing(rest_index[j], rows[:, face(d, j, b)])
                if miss is not None:
                    witness = [j, b, rows[miss].tolist()]
    items.append(_pass_fail("project_closure", witness is None, witness,
                            points=checked))

    # digit permutation: Q over (sigma(1)..sigma(d)) maps onto Q over (1..d).
    # The reordered relations are read off the sets built here.
    witness = None
    sigmas = list(permutations(dirs))
    for sigma in sigmas:
        src = enumerate_Q(sys, sigma)
        keep_reordered_relation(src)
        cols = restrict(d, sigma)
        if witness is None and not index.same_set(src.rows[:, cols]):
            witness = list(sigma)
    items.append(_pass_fail("digit_permute_bijection", witness is None, witness,
                            permutations=len(sigmas)))

    # reflection: flipping any digit permutes the set
    witness = None
    for j in dirs:
        if witness is None and not index.same_set(rows[:, flip(d, j)]):
            witness = j
    items.append(_pass_fail("reflect_invariance", witness is None, witness,
                            directions=d))
    return items


# ---------------------------------------------------------------------------
# cube set structure


def cube_battery(sys: FiniteZdSystem) -> list[dict]:
    d = sys.d
    dirs = sys.dirs
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

    rows, index = Q.rows, Q.index
    diagonal = np.repeat(np.arange(sys.n_points), Q.width).reshape(-1, Q.width)
    witness = _first_missing(index, diagonal)
    items.append(_pass_fail("diagonal_membership", witness is None, witness,
                            points=sys.n_points))

    witness = None
    for j in dirs:
        pairs = enumerate_Q(sys, (j,))
        miss = _first_missing(pairs.index, pairs.rows[:, ::-1])
        if miss is not None:
            witness = [j] + pairs.rows[miss].tolist()
            break
    items.append(_pass_fail("single_direction_symmetry", witness is None, witness))

    orbit, escape = face_group_orbit(Q, rows[0])
    witness = None if escape is None else \
        [list(escape[0].face), list(escape[0].diag), escape[1].tolist()]
    items.append(_pass_fail("face_group_invariance", witness is None, witness,
                            generators=2 * (len(dirs) + d)))

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
                            np.array_equal(K.rows, sec.rows), None,
                            K_size=len(K), K_sha256=K.text_sha256()))
    return items


# ---------------------------------------------------------------------------
# proximality relations


def _constant_tail_keys(Q, n: int) -> np.ndarray:
    """Sorted keys x*n + y of the pairs with (x, y, .., y) in the full cube
    set Q over a system on n points."""
    rows = Q.rows
    constant = (rows[:, 1:] == rows[:, 1:2]).all(axis=1)
    return rows[constant, 0].astype(np.int64) * n + rows[constant, 1]


def _section_classes(Q, sec: dict[int, range], n: int
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """(ids, shared, m) for the sections of a full cube set over n points:
    ids[x] in 0..m-1 is equal for two points exactly when their sections
    hold the same tails (m - 1 is the empty section of points without
    one), and shared holds the sorted keys a*m + b of the class pairs
    whose sections have a tail in common.

    The tails of a section are sorted, so each is a slice of dense tail
    ids and equal sections are equal slices, ranked by their bytes within
    each length.  Shared tails are a join on tail ids over one section per
    class."""
    tails = np.unique(Q.column_keys(slice(1, None)), return_inverse=True)[1]
    xs = np.array(list(sec), dtype=np.int64)
    starts = np.array([r.start for r in sec.values()], dtype=np.int64)
    lengths = np.array([len(r) for r in sec.values()], dtype=np.int64)
    ids = np.full(n, -1, dtype=np.int64)
    m = 0
    for length in _distinct(lengths).tolist():
        pick = np.flatnonzero(lengths == length)
        block = tails[starts[pick, None] + np.arange(length)]
        rank = np.unique(block.view(f"V{block.itemsize * length}").ravel(),
                         return_inverse=True)[1]
        ids[xs[pick]] = m + rank
        m += int(rank.max()) + 1
    ids[ids < 0] = m
    m += 1
    rep = np.unique(ids[xs], return_index=True)[1]
    rows = np.concatenate([np.arange(starts[i], starts[i] + lengths[i])
                           for i in rep.tolist()] or [np.empty(0, np.int64)])
    owner = np.repeat(ids[xs[rep]], lengths[rep])
    order = np.lexsort((owner, tails[rows]))
    held, owner = tails[rows][order], owner[order]
    head = np.flatnonzero(np.diff(held, prepend=-1))
    sizes = np.diff(np.append(head, len(held)))
    shared = [np.empty(0, dtype=np.int64)]
    for g, r in _chunked_ranks(sizes * sizes, PAIR_CHUNK):
        a = owner[head[g] + r // sizes[g]]
        b = owner[head[g] + r % sizes[g]]
        shared.append(_distinct(a * m + b))
    return ids, _distinct(np.concatenate(shared)), m


def five_way_battery(sys: FiniteZdSystem) -> tuple[bool, int, list | None]:
    """All five membership formulations on every pair at once; returns
    (agree everywhere, pairs checked, first disagreement with its flags).

    The pairs (x, y) are keys x*n + y, tested in row-major order for
    PAIR_CHUNK // n values of x at a time: membership in every R_j and in
    some R_j, and the constant tail (x, y, .., y) in Q, are lookups in
    sorted pair keys; equal sections are equal section classes, and
    sections that meet are a lookup of the class pair among those sharing
    a tail."""
    n = sys.n_points
    Q = enumerate_Q(sys, sys.dirs)
    rels = [compute_R_j(sys, j).keys for j in sys.dirs]
    every = compute_R(sys).keys
    some = _distinct(np.concatenate(rels))
    tails = _constant_tail_keys(Q, n)
    ids, shared, m = _section_classes(Q, sections(Q), n)
    step = max(1, PAIR_CHUNK // n)
    for x0 in range(0, n, step):
        keys = np.arange(x0 * n, min(x0 + step, n) * n, dtype=np.int64)
        x, y = np.divmod(keys, n)
        conds = np.stack([
            _find_keys(every, keys)[1],
            _find_keys(tails, keys)[1],
            _find_keys(shared, ids[x] * m + ids[y])[1],
            ids[x] == ids[y],
            _find_keys(some, keys)[1],
        ])
        split = (conds != conds[0]).any(axis=0)
        if split.any():
            i = int(np.argmax(split))
            return False, int(keys[i]) + 1, [int(x[i]), int(y[i]),
                                             conds[:, i].tolist()]
    return True, n * n, None


def proximal_battery(sys: FiniteZdSystem) -> list[dict]:
    minimal = is_minimal(sys).ok
    items = []

    witness = next((j for j in sys.dirs if not _same(
        compute_R_j(sys, j).keys, compute_R_j_reordered(sys, j).keys)), None)
    items.append(_pass_fail("relation_order_independence", witness is None,
                            witness))

    R = compute_R(sys)
    eq = _R_equivalence(sys)
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
        uq = ucpp_check(enumerate_Q(q_sys, q_sys.dirs)) if q_sys.d >= 2 else None
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


def structure_battery(sys: FiniteZdSystem) -> list[dict]:
    d = sys.d
    minimal = is_minimal(sys).ok
    items = []
    if d < 2:
        return [_item("decompose_injective", "skipped", None,
                      reason="needs d >= 2")]

    for j in sys.dirs:
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

    dec = decompose(sys, 0)
    if dec.hypotheses_met:
        items.append(_pass_fail(
            "decompose_injective", bool(dec.injective),
            None if dec.injective else [list(dec.injectivity_witness[0]),
                                        list(dec.injectivity_witness[1])],
            K_size=len(dec.K),
            side_sizes=[len(p.values) for p in dec.side_projections]))
        witness = None
        for j in sys.dirs:
            r = factor_isomorphism_check(sys, 0, j)
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
    witness = None
    try:
        for x in (0, sys.n_points - 1):
            if not contains_zero_vector(return_set(sys, x, {x})):
                witness = x
                break
    except InputError as exc:
        # the input is valid; only the box of its generator orders is too big
        items = [_item("zero_vector_return", "skipped", None,
                       reason=f"budget: {exc}")]
    else:
        items = [_pass_fail("zero_vector_return", witness is None, witness)]

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
    for j in sys.dirs:
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


def affine_battery(asys: AffineZdSystem) -> list[dict]:
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
    ft = formula_equivalence_test(asys, n_range=3)
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
    # residues are reduced into the moduli box, so they are its members;
    # each partial sum stays below the image modulus plus a residue < 2^62
    g = img.moduli[0]
    sums = np.zeros(len(ps.rows), dtype=np.int64)
    for column in ps.rows.T:
        sums = (sums + column) % g
    items.append(_pass_fail("sum_image_consistency",
                            np.array_equal(_distinct(sums), img.rows[:, 0]),
                            None, image_modulus=g))
    return items
