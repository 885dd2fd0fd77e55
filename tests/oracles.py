"""Independent oracles for the exact-algebra and tower tests.

Fraction-free (Bareiss) determinants share no code with the Smith form,
so they can certify its transforms and pin its diagonal through minors.
Trial division and a search for monic factors share no code with the
Miller–Rabin, BPSW and Rabin tests behind ``is_prime_element``.  The
F_p[x] sum, product and division below reduce after every coefficient
operation and pass each result through ``canonical``, so they catch a ring
operation that trusts its canonical operands but returns a non-canonical
result.  They read their operands through ``ring.coefficients``, so they
serve the packed F_2[x] and the bit-sliced F_3[x] too; those rings' own
oracles are the tuple rings built directly as ``PrimeFieldPolynomialRing(p)``
(``tests/test_rings.py``).

The truncated limit built in one shot as the kernel of the full coherence
map, the limit folded one level at a time as an iterated pullback of
kernels (``inverse_limit_by_folds``), and the preimage under a limit's
whole inclusion (for restrictions of ambient maps and for the limit of
the level homs that ``_level_hom_checks`` compares with the endomorphisms)
share no code with the top-level limits of ``towers``.
``folds_reach_the_top`` is the theorem that a finite limit is its top
module, as a differential test: the fold's carrier is the top module,
compatibly with every projection.

The program keeps an element of a truncated limit as its top residue x
and multiplies by the 1x1 map [[x]].  The string route it once took is
the oracle for that.  ``ambient_limit`` stacks the program's transitions
into the inclusion matrix of ``towers.inverse_limit``, which the
truncated limit never builds; ``residue_string`` is the string (x mod
a_1, ..., x mod a_N) and ``coherent_string`` checks a string the way the
program once checked one.  ``limit_preimage`` takes the top rows of
ambient columns and keeps them when one product with the whole inclusion
agrees with the ambient columns level by level.  ``_connect_all``
restricts a batch of ambient maps that way, and ``connect_carriers`` one
of them; the multiplication by a string is its diagonal restricted so
(``multiplication_by_connect``), its carrier column is its preimage
(``columns_by_preimage``), and the string of a carrier column is its
image under the inclusion (``strings_by_inclusion``).
``limit_maps_unlike_the_oracle`` compares the two routes on a tower's top
limit.  ``limit_preimage_by_levels`` lifts the top rows through the top
projection and checks the lift with one product per level projection
(``limit_projections``), where ``limit_preimage`` takes one product with
the whole inclusion.  A limit keeps its inclusion as a bare matrix;
``inclusion_morphism`` makes it a morphism into the direct sum of the
levels, which only these oracles build.  The composites of inclusions and
transitions as one plain chain of ``compose`` calls, transitions from the
top level down, share no code with the memoised chain behind
``inclusion_composite`` and this module's ``transition_composite``, which
extends one stored list of entries and composes transitions from the
bottom level up.  The componentwise product of coherent residue strings
(``coherent_product``) shares no code with ``multiplication_morphisms``.

Injectivity as a zero kernel module shares no code with the counting
that decides it for finite modules in ``fpmod``, nor with the test that
the kernel columns vanish in the source, which decides it for modules
with a free part.  The residue map from one level onto the next lower is
written directly as the identity on the generator
(``reduction_morphism``).  ``transition_by_conjugation`` builds the
transition the way ``build_transition`` once did, restriction along the
inclusion conjugated through the canonical isomorphisms, inverting one
of them by ``lift`` (``invert_isomorphism``); it shares only those
canonical maps with ``build_transition``, which returns the reduction.
``lift``, ``invert_isomorphism`` and ``equal_morphisms`` have no caller
in the program any more and live here.

The order and zero test read off the full Smith form (with Q, whose
transforms ``test_matrices`` checks against determinantal divisors) share
no code with the normal form behind ``module_order`` and
``is_zero_module`` beyond the pivot rule of the elimination.  The explicit
map of ``find_isomorphism``, checked to be an isomorphism, is the oracle
for ``is_isomorphic``.  The map induced on hom modules by decoding,
composing and encoding one basis morphism at a time (``basis_morphism``)
shares no code with the two products and one batch encoding of
``induced_hom``.  One block encoded on its own, its morphism test read
off the invariant factors (an entry times its source factor in its
target factor's ideal), is the oracle for the cell encoder
``HomModule.encode_cells``, which makes one pass per cell over a whole
batch.

The matrix product written from its definition, one sum of products per
entry, shares no code with ``Matrix.__matmul__`` and takes none of its
shortcuts (an identity operand, 1x1 operands, zero entries).

The moduli g^n as n products each share no code with the tower, which
builds them one product per level.  One element's key, from its own
``to_standard`` product, is the oracle for the batched ``element_keys``
that the exhaustive oracles of the verifier run over whole enumerations.

The sampled oracle of ``lemma_weak_epi`` and the coproduct trials of
``lemma_self_small`` run here one trial at a time, drawing, building and
checking one map before drawing the next (``samples_agree_by_trials``
and ``coproduct_failure_by_trials``).  They are the reference for the
batched passes, which draw every trial first and check them all in a few
products: the loops share only the multiplication by one element
(``multiplication_morphisms`` of a batch of one), not the batching, the
comparison or the block bookkeeping.  The elements of
``lemma_self_small`` are multiplied as they come; ``rebuilt_elements``
rebuilds their residues through the string route instead, and
``self_small_draws`` replays the entry's draws in their order.  Zero
maps and the zero test of a map (``zero_morphism``, ``is_zero_morphism``)
serve those loops and the tests.

Maps the verifier no longer builds live at the end of this module, on the
program's own machinery: the shift of a truncated limit, truncations, the
shift embedding, tensored maps, composite transitions, and ``is_exact``.
With them, ``implied_lemma_checks_that_fire`` runs the checks that
``jislim``, ``jjz``, ``homjz_a`` and ``homjz_b`` leave to conditions 2
and 4 and to the limit's construction, on any tower those entries reach;
for ``jislim`` that includes comparing each truncated limit with its
fold, and the comparison of the endomorphisms with the limit of the
level homs that ``lemma_weak_epi`` leaves to construction.

``condition_5_collapse_checks`` runs the two tensor checks that
``check_condition_5`` leaves to its per-level test.
``condition_3_direct_route_checks`` takes the restrictions at the
stabilized indices that ``check_condition_3`` leaves to condition 3', and
``image_stabilization_checks`` makes the four ``mittag_leffler_check``
calls whose verdicts ``zml`` and ``jjz`` record without building their
systems, on the transition list of ``build_transitions``, which the
program no longer builds.
``quotient_by_all_splits`` runs the three checks that ``lemma_quotient``
once ran, injectivity, the cokernel and the dual restriction, on every
split, where the lemma checks the cokernel of one split per total.  Inside
``every_pair_checked``, ``adjacent_pairs_pass`` is false on every tower
and that loop stands in for the lemma, so conditions 2, 3' and 3 and
``quotient`` check every level pair;
``adjacent_and_every_pair_reports`` sets that report beside the
verifier's own.

The definitions at the end decide, for hand-built Z towers, condition 5
and whether each transition's canonical maps are bijections, by listing
residues: homs Z/a -> Z/b are the y mod b with a.y = 0 mod b.
"""

import itertools
import json
from contextlib import contextmanager
from typing import NamedTuple

from adictower import towers
from adictower.exactalg.matrices import (
    Matrix,
    hstack,
    kronecker,
    smith_form,
    solve_matrix,
    vstack,
)
from adictower.exactalg.rings import Ideal, integer_ring
from adictower.fpmod.functors import hom_module, induced_hom, tensor_module
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    annihilator_generator,
    cyclic_module,
    direct_sum,
    free_module,
    is_zero_module,
    module_elements,
    normalize,
)
from adictower.fpmod.morphisms import (
    cokernel,
    compose,
    find_isomorphism,
    identity_morphism,
    is_injective,
    is_isomorphic,
    is_isomorphism,
    is_surjective,
    is_well_defined,
    kernel,
    kernel_columns,
    submodules_equal,
    vanishes,
)
from adictower.memo import memo_scope
from adictower.towers import (
    ML_HOLDS_BY_SURJECTIVITY,
    AdicTower,
    StabilizationError,
    TowerError,
    build_transition,
    canonical_hom_embedding,
    hom_into_colimit,
    inclusion_composite,
    mittag_leffler_check,
    truncated_limit,
)
from adictower.verify import lemmas, pipeline
from adictower.verify.pipeline import verify_tower
from adictower.verify.report import failed, passed


def determinant(a: Matrix):
    """Determinant by fraction-free (Bareiss) elimination; exact in any
    integral domain."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    ring = a.ring
    n = a.rows
    if n == 0:
        return ring.one
    w = a.to_lists()
    sign = ring.one
    prev = ring.one
    for k in range(n - 1):
        if w[k][k] == ring.zero:
            pivot = next(
                (i for i in range(k + 1, n) if w[i][k] != ring.zero), None
            )
            if pivot is None:
                return ring.zero
            w[k], w[pivot] = w[pivot], w[k]
            sign = ring.neg(sign)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ring.sub(
                    ring.mul(w[k][k], w[i][j]), ring.mul(w[i][k], w[k][j])
                )
                w[i][j] = ring.div(num, prev)
            w[i][k] = ring.zero
        prev = w[k][k]
    return ring.mul(sign, w[n - 1][n - 1])


def is_invertible(a: Matrix) -> bool:
    return a.rows == a.cols and a.ring.is_unit(determinant(a))


def is_prime(n: int) -> bool:
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_irreducible(ring, a) -> bool:
    """Irreducibility over F_p by dividing a by every monic polynomial of
    degree 1 to deg(a)/2."""
    n = ring.norm(a)
    if n < 1:
        return False
    for deg in range(1, n // 2 + 1):
        for low in itertools.product(range(ring.characteristic), repeat=deg):
            factor = ring.canonical(tuple(low) + (1,))
            if ring.is_zero(ring.euclid_divmod(a, factor)[1]):
                return False
    return True


def poly_add(ring, a, b):
    """Sum in F_p[x], canonicalised."""
    a, b = ring.coefficients(a), ring.coefficients(b)
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % ring.characteristic
    return ring.canonical(tuple(out))


def poly_mul(ring, a, b):
    """Product in F_p[x], reducing after every coefficient product."""
    a, b = ring.coefficients(a), ring.coefficients(b)
    if not a or not b:
        return ring.zero
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % ring.characteristic
    return ring.canonical(tuple(out))


def poly_euclid_divmod(ring, a, b):
    """Schoolbook long division in F_p[x] with canonical quotient."""
    a, b = ring.coefficients(a), ring.coefficients(b)
    p = ring.characteristic
    lead_inv = pow(b[-1], p - 2, p)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 1)
    while len(rem) >= len(b):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(b)
        factor = (rem[-1] * lead_inv) % p
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
    return ring.canonical(tuple(quo)), ring.canonical(tuple(rem))


def matrix_product(a: Matrix, b: Matrix) -> Matrix:
    """A B from the definition: entry (i, j) is the sum over k of
    a_ik b_kj, added up from zero through the ring's own operations."""
    ring = a.ring
    entries = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = ring.zero
            for k in range(a.cols):
                acc = ring.add(acc, ring.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        entries.append(tuple(row))
    return Matrix(ring, a.rows, b.cols, tuple(entries))


def power(ring, a, k: int):
    """a^k by k products; the oracle for the level moduli that a tower
    builds one product at a time."""
    out = ring.one
    for _ in range(k):
        out = ring.mul(out, a)
    return out


def element_key(module, column: Matrix) -> tuple:
    """Canonical coordinates of one element; equal classes get equal keys."""
    ring = module.ring
    norm = normalize(module)
    coords = norm.to_standard @ column
    key = []
    for i in range(norm.standard.generators):
        v = coords.entries[i][0]
        if i < len(norm.factors):
            v = ring.rem(v, norm.factors[i])
        key.append(v)
    return tuple(key)


def encode_block(hom, block) -> Matrix:
    """Coefficient column of one morphism between the standard forms of a
    hom module's endpoints, from its standard block: ``block[j][i]`` is
    the image of source generator i at target generator j.

    Raises ``ValueError`` unless every entry times its source factor lies
    in its target factor's ideal (a free generator's factor is zero);
    then each basis entry is divided by its scale and reduced modulo its
    annihilator.
    """
    ring = hom.ring
    ns, nt = normalize(hom.source), normalize(hom.target)

    def factor(norm, i):
        return norm.factors[i] if i < len(norm.factors) else ring.zero

    for i in range(ns.standard.generators):
        for j in range(nt.standard.generators):
            image = ring.mul(factor(ns, i), block[j][i])
            if ring.try_div(image, factor(nt, j)) is None:
                raise ValueError("block does not define a morphism")
    coefficients = []
    for b in hom.basis:
        c = ring.div(block[b.target_index][b.source_index], b.scale)
        if b.annihilator != ring.zero:
            c = ring.rem(c, b.annihilator)
        coefficients.append(c)
    return Matrix.column(ring, coefficients)


def coherence_kernel(tower, upto) -> ModuleMorphism:
    """The limit of levels 1..upto as the inclusion of the kernel of the
    coherence map (x_n) -> (x_n - delta_n(x_{n+1})) on the direct sum of
    the levels, built in one shot without ``inverse_limit``."""
    ring = tower.ring
    levels = [tower.level(n) for n in range(1, upto + 1)]
    summed, _, _ = direct_sum(levels)
    lower = direct_sum(levels[:-1])[0] if upto > 1 else free_module(ring, 0)
    rows = [[ring.zero] * upto for _ in range(upto - 1)]
    for n in range(upto - 1):
        rows[n][n] = ring.one
        rows[n][n + 1] = ring.neg(build_transition(tower, n + 1).matrix.entries[0][0])
    coherence = Matrix(ring, upto - 1, upto, tuple(tuple(r) for r in rows))
    return kernel(ModuleMorphism(summed, lower, coherence))


class FoldedLimit(NamedTuple):
    carrier: FpModule
    projections: list


def inverse_limit_by_folds(modules, maps) -> FoldedLimit:
    """The limit of a finite inverse system folded one level at a time, as
    an iterated pullback: the limit of the first n+1 modules is the kernel
    of ``(l, x) -> top_n(l) - maps[n-1](x)`` on the sum of the limit L_n
    of the first n and ``modules[n]``, handed on in its normal form.  The
    inclusion matrix is ``[include_n . p_1 ; p_2]`` times the certified
    isomorphism ``from_standard``, and the level projections are its
    blocks of rows."""
    ring = modules[0].ring
    carrier, include = _normal_carrier(
        modules[0], Matrix.identity(ring, modules[0].generators)
    )
    for n, f in enumerate(maps):
        carrier, include = _fold_level(carrier, include, modules[n], modules[n + 1], f)
    projections = []
    start = 0
    for m in modules:
        stop = start + m.generators
        projections.append(ModuleMorphism(carrier, m, include.row_slice(start, stop)))
        start = stop
    return FoldedLimit(carrier, projections)


def _normal_carrier(carrier, include: Matrix):
    """The carrier replaced by its normal form, through ``from_standard``."""
    norm = normalize(carrier)
    return norm.standard, include @ norm.from_standard


def _fold_level(carrier, include: Matrix, top, level, f: ModuleMorphism):
    """Carrier and inclusion matrix of the limit one level up: ``carrier``
    is the limit so far, ``include`` its inclusion matrix into the modules
    so far, the last of which is ``top``, and ``f`` maps ``level`` to
    ``top``."""
    ring = level.ring
    top_rows = include.row_slice(include.rows - top.generators, include.rows)
    pair = direct_sum([carrier, level])[0]
    cone = ModuleMorphism(
        pair, top, hstack([top_rows, f.matrix.scale(ring.neg(ring.one))])
    )
    kernel_include = kernel(cone)
    cols = kernel_include.matrix
    below = carrier.generators
    stacked = vstack(
        [include @ cols.row_slice(0, below), cols.row_slice(below, cols.rows)]
    )
    return _normal_carrier(kernel_include.source, stacked)


def folds_reach_the_top(limit, modules, maps) -> bool:
    """Whether the folded limit of ``modules`` and ``maps`` is the limit's
    carrier, the top module, compatibly with every projection: its carrier
    is isomorphic to the top module, its top projection is an isomorphism,
    and each of its projections is the limit's projection after that one."""
    fold = inverse_limit_by_folds(modules, maps)
    top = fold.projections[-1]
    return (
        find_isomorphism(fold.carrier, limit.carrier) is not None
        and is_isomorphism(top)
        and all(
            equal_morphisms(compose(p, top), q)
            for p, q in zip(limit_projections(limit), fold.projections)
        )
    )


def limit_projections(limit) -> list:
    """The level projections of a limit: the blocks of rows of its
    inclusion matrix, one morphism per module."""
    out = []
    start = 0
    for m in limit.modules:
        stop = start + m.generators
        out.append(ModuleMorphism(limit.carrier, m, limit.include.row_slice(start, stop)))
        start = stop
    return out


def inclusion_morphism(limit, modules) -> ModuleMorphism:
    """The inclusion matrix of ``limit`` as a morphism from its carrier
    into the direct sum of ``modules``, which the limit never builds."""
    return ModuleMorphism(limit.carrier, direct_sum(modules)[0], limit.include)


def truncated_levels(limit):
    """The tower levels 1..N of a truncated limit at level N."""
    return list(limit.tower.levels[: limit.level])


def ambient_limit(limit) -> towers.InverseLimit:
    """The limit of the levels 1..N of a truncated limit at level N along
    the program's transitions, by ``towers.inverse_limit``: the same
    carrier, with the inclusion matrix into the levels that the truncated
    limit never builds."""
    tower = limit.tower
    transitions = [towers.build_transition(tower, n) for n in range(1, limit.level)]
    return towers.inverse_limit(truncated_levels(limit), transitions)


def level_moduli(limit) -> list:
    """The moduli a_1, ..., a_N of the levels of a truncated limit."""
    return [limit.tower.level_modulus(k) for k in range(1, limit.level + 1)]


def residue_string(limit, x) -> tuple:
    """The residue string (x mod a_1, ..., x mod a_N) of the element with
    top residue x: its components in the levels."""
    return tuple(limit.ring.rem(x, m) for m in level_moduli(limit))


def coherent_string(limit, components) -> tuple:
    """A residue string canonicalised, reduced modulo each level's modulus
    and checked coherent: each component the reduction of the one above.
    Raises ``ValueError`` otherwise."""
    ring = limit.ring
    moduli = level_moduli(limit)
    if len(components) != len(moduli):
        raise ValueError(f"expected {len(moduli)} components, got {len(components)}")
    comps = [ring.rem(ring.canonical(c), m) for c, m in zip(components, moduli)]
    for n in range(len(comps) - 1):
        if ring.rem(comps[n + 1], moduli[n]) != comps[n]:
            raise ValueError(
                f"incoherent element: level {n + 1} component does not "
                f"match the transition of level {n + 2}"
            )
    return tuple(comps)


def preimage_by_inclusion(limit, modules, amb: Matrix):
    """Carrier columns that the whole inclusion of ``limit`` into the sum
    of ``modules`` maps onto the ambient columns ``amb``, or None."""
    return lift(inclusion_morphism(limit, modules), amb)


def limit_preimage(limit, amb: Matrix):
    """Carrier columns of a limit that its inclusion maps onto the ambient
    columns ``amb``, or None.

    The last block of the limit's ``include`` matrix is the identity, so
    the only candidate is the top rows of ``amb``.  It is kept when its
    image under the inclusion, one product, agrees with ``amb`` modulo each
    level's relations, block of rows by block of rows.
    """
    rows = amb.rows
    cols = amb.row_slice(rows - limit.carrier.generators, rows)
    diff = (limit.include @ cols).sub(amb)
    start = 0
    for m in limit.modules:
        stop = start + m.generators
        if not vanishes(m, diff.row_slice(start, stop)):
            return None
        start = stop
    return cols


def _connect_all(src, dst, bigs) -> list:
    """Each ambient map of ``bigs``, from the levels of the truncated limit
    ``src`` to those of ``dst``, restricted to a map between the limit
    carriers, in one batch: the images of the source inclusion side by
    side, their top rows checked by one product with the destination
    inclusion and one agreement check per level (:func:`limit_preimage`),
    then ``is_well_defined`` per map.  Raises ``TowerError`` when a map
    does not carry the source carrier into the destination carrier."""
    include = ambient_limit(src).include
    mats = limit_preimage(ambient_limit(dst), hstack([big @ include for big in bigs]))
    if mats is None:
        raise TowerError("ambient map does not preserve the limit carriers")
    gens = src.carrier.generators
    out = []
    for b in range(len(bigs)):
        restricted = ModuleMorphism(
            src.carrier, dst.carrier, mats.columns(range(b * gens, (b + 1) * gens))
        )
        if not is_well_defined(restricted):
            raise TowerError("restricted carrier map is not well defined")
        out.append(restricted)
    return out


def multiplication_by_connect(limit, strings) -> list:
    """Multiplication by each residue string the way the program once
    built it: the diagonal ambient maps of the components, restricted
    together (:func:`_connect_all`)."""
    return _connect_all(
        limit, limit, [Matrix.diagonal(limit.ring, s) for s in strings]
    )


def columns_by_preimage(limit, strings) -> Matrix:
    """Carrier coordinates of residue strings the way the program once
    took them: the strings side by side, restricted by
    :func:`limit_preimage`.  Raises ``TowerError`` when one of them is
    outside the carrier."""
    amb = Matrix(limit.ring, limit.level, len(strings), tuple(zip(*strings)))
    sol = limit_preimage(ambient_limit(limit), amb)
    if sol is None:
        raise TowerError("coherent element is outside the carrier")
    return sol


def strings_by_inclusion(limit, cols: Matrix) -> list:
    """Residue strings of carrier columns the way the program once built
    them: one product with the inclusion, each column checked by
    :func:`coherent_string`."""
    return [coherent_string(limit, s) for s in ambient_strings(limit, cols)]


def ambient_strings(limit, cols: Matrix) -> list:
    """The images of carrier columns under the inclusion, one unreduced
    string each."""
    return list(zip(*(ambient_limit(limit).include @ cols).entries))


def strings_agree(limit, strings, others) -> bool:
    """Whether two lists of strings agree level by level, modulo the
    relations of each level module (not through ``level_modulus``)."""
    ring = limit.ring
    for k, level in enumerate(truncated_levels(limit)):
        row = tuple(ring.sub(a[k], b[k]) for a, b in zip(strings, others))
        if not vanishes(level, Matrix(ring, 1, len(row), (row,))):
            return False
    return True


def refused_or(fn, *args):
    """``fn(*args)``, or ``"refused"`` when it raises ``TowerError``."""
    try:
        return fn(*args)
    except TowerError:
        return "refused"


def limit_maps_unlike_the_oracle(tower) -> list:
    """Where the top truncated limit's elements, kept as top residues,
    differ from the string route: on the carrier's elements (all of them
    up to 64, else the first 64 residues), the residue string read by
    :func:`residue_string` against the carrier column through the whole
    inclusion (:func:`ambient_strings`), the column back from that
    string (:func:`columns_by_preimage`) against the residue, and
    ``multiplication_morphisms`` against the diagonal restricted
    (:func:`multiplication_by_connect`).  Each string with one component
    moved by one or by its level's modulus must be refused by the string
    route exactly when it is not the string of its top component, and
    otherwise come back as that top residue.  Raises ``TowerError`` when
    the limit cannot be built."""
    fired = []
    with memo_scope():
        limit = truncated_limit(tower, tower.depth)
        ring = tower.ring
        listed = module_elements(limit.carrier, 64)
        if listed is None:
            tops = [ring.residue_at(limit.modulus, i) for i in range(64)]
        else:
            tops = list(listed.matrix.entries[0])
        row = Matrix(ring, 1, len(tops), (tuple(tops),))
        strings = [residue_string(limit, x) for x in tops]
        if not strings_agree(limit, strings, ambient_strings(limit, row)):
            fired.append("limit: residue strings unlike the inclusion route")
        if not _same_residues(limit, columns_by_preimage(limit, strings), tops):
            fired.append("limit: carrier coordinates unlike the string route")
        mults = zip(
            limit.multiplication_morphisms(tops),
            multiplication_by_connect(limit, strings),
        )
        if not all(equal_morphisms(a, b) for a, b in mults):
            fired.append("limit: multiplications unlike the string route")
        moduli = level_moduli(limit)
        for string in strings:
            for n, m in enumerate(moduli):
                for shift in (ring.one, m):
                    moved = list(string)
                    moved[n] = ring.add(moved[n], shift)
                    top = ring.rem(moved[-1], limit.modulus)
                    reduced = [ring.rem(c, a) for c, a in zip(moved, moduli)]
                    on = reduced == list(residue_string(limit, top))
                    col = refused_or(columns_by_preimage, limit, [moved])
                    if (col == "refused") == on or (
                        on and not _same_residues(limit, col, [top])
                    ):
                        fired.append(f"limit: string {tuple(moved)}")
    return fired


def _same_residues(limit, cols: Matrix, tops) -> bool:
    """Whether the one-row carrier columns ``cols`` are ``tops`` modulo
    the carrier's modulus."""
    ring = limit.ring
    return [ring.rem(c, limit.modulus) for c in cols.entries[0]] == list(tops)


def limit_preimage_by_levels(limit, amb: Matrix):
    """:func:`limit_preimage` one level at a time: the lift of the top
    rows of ``amb`` through the top projection, kept when each projection
    maps it onto that level's rows of ``amb``, by one product, one
    difference and one ``vanishes`` per level."""
    projections = limit_projections(limit)
    top = projections[-1]
    rows = amb.rows
    cols = lift(top, amb.row_slice(rows - top.target.generators, rows))
    if cols is None:
        return None
    start = 0
    for p in projections:
        stop = start + p.target.generators
        diff = (p.matrix @ cols).sub(amb.row_slice(start, stop))
        if not vanishes(p.target, diff):
            return None
        start = stop
    return cols


def connect_by_inclusion(src, dst, big: Matrix) -> ModuleMorphism:
    """Restriction of an ambient map between truncated limits by a lift
    through the whole destination inclusion."""
    amb = big @ ambient_limit(src).include
    mat = preimage_by_inclusion(ambient_limit(dst), truncated_levels(dst), amb)
    if mat is None:
        raise TowerError("ambient map does not preserve the limit carriers")
    out = ModuleMorphism(src.carrier, dst.carrier, mat)
    if not is_well_defined(out):
        raise TowerError("restricted carrier map is not well defined")
    return out


def coherent_product(limit, a, b):
    """Componentwise product of two coherent strings of ``limit``."""
    ring = limit.ring
    return coherent_string(limit, [ring.mul(x, y) for x, y in zip(a, b)])


def reduction_morphism(tower, n: int) -> ModuleMorphism:
    """The residue map from level n+1 onto level n, written directly: the
    identity on the one generator."""
    if not 1 <= n <= tower.depth - 1:
        raise ValueError(f"no reduction at level {n}")
    return ModuleMorphism(
        tower.level(n + 1), tower.level(n), Matrix.identity(tower.ring, 1)
    )


def inclusion_chain(tower, m: int, n: int) -> ModuleMorphism:
    """Inclusion from level m up to level n, composed one map at a time."""
    result = identity_morphism(tower.level(m))
    for k in range(m, n):
        result = compose(tower.inclusion(k), result)
    return result


def transition_chain(tower, j: int, i: int) -> ModuleMorphism:
    """Transition from level i down to level j, composed one map at a time."""
    result = identity_morphism(tower.level(i))
    for n in range(i - 1, j - 1, -1):
        result = compose(build_transition(tower, n), result)
    return result


def is_injective_by_kernel(f: ModuleMorphism) -> bool:
    """Injectivity as a zero kernel module: a kernel basis, the saturated
    presentation of the kernel on it, then a normal form."""
    return is_zero_module(kernel(f).source)


def _smith_invariants(module):
    """The non-unit nonzero entries of the full Smith diagonal of the
    relations, and the number of generators it leaves free (zero or
    missing entries)."""
    ring = module.ring
    diag = smith_form(module.relations).diagonal()
    diag += [ring.zero] * (module.generators - len(diag))
    torsion = [d for d in diag if d != ring.zero and not ring.is_unit(d)]
    return torsion, diag.count(ring.zero)


def order_by_smith_form(module):
    """Number of elements from the full Smith form, None with free part."""
    torsion, free = _smith_invariants(module)
    if free:
        return None
    count = 1
    for f in torsion:
        count *= module.ring.residue_count(f)
    return count


def is_zero_by_smith_form(module) -> bool:
    """Zero module: the Smith diagonal has a unit for every generator."""
    return _smith_invariants(module) == ([], 0)


def isomorphic_by_map(source, target) -> bool:
    """Isomorphic when ``find_isomorphism`` builds a map and that map is an
    isomorphism."""
    iso = find_isomorphism(source, target)
    return iso is not None and is_isomorphism(iso)


def basis_morphism(hom, t: int) -> ModuleMorphism:
    """Basis morphism t of a hom module, decoded from its unit column."""
    unit = Matrix.identity(hom.ring, hom.module.generators)
    return hom.decode(unit.column_at(t))


def induced_hom_by_basis(f: ModuleMorphism, other, variance: str) -> ModuleMorphism:
    """The map induced on hom modules, one basis morphism at a time: decode
    it, compose with f, encode the composite."""
    if variance == "pre":
        src_hom, dst_hom = hom_module(f.target, other), hom_module(f.source, other)
        images = [compose(basis_morphism(src_hom, t), f) for t in range(len(src_hom.basis))]
    else:
        src_hom, dst_hom = hom_module(other, f.source), hom_module(other, f.target)
        images = [compose(f, basis_morphism(src_hom, t)) for t in range(len(src_hom.basis))]
    if images:
        mat = hstack([dst_hom.encode(phi) for phi in images])
    else:
        mat = Matrix.zeros(f.ring, dst_hom.module.generators, 0)
    return ModuleMorphism(src_hom.module, dst_hom.module, mat)


def zero_morphism(source, target) -> ModuleMorphism:
    return ModuleMorphism(
        source, target, Matrix.zeros(source.ring, target.generators, source.generators)
    )


def is_zero_morphism(f: ModuleMorphism) -> bool:
    return vanishes(f.target, f.matrix)


def equal_morphisms(f: ModuleMorphism, g: ModuleMorphism) -> bool:
    """Equality as maps, i.e. the difference lands in the target relations."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("comparing morphisms with different endpoints")
    return vanishes(f.target, f.matrix.sub(g.matrix))


def lift(f: ModuleMorphism, rhs: Matrix):
    """Source columns that f maps onto the columns of ``rhs``, or None.

    Solves ``[f.matrix | f.target.relations] X = rhs`` and keeps the top
    ``f.source.generators`` rows of X: a preimage up to the target
    relations.
    """
    sol = solve_matrix(hstack([f.matrix, f.target.relations]), rhs)
    if sol is None:
        return None
    return sol.row_slice(0, f.source.generators)


def invert_isomorphism(f: ModuleMorphism) -> ModuleMorphism:
    """Two-sided inverse of an isomorphism (raises on non-isomorphisms)."""
    sol = lift(f, Matrix.identity(f.ring, f.target.generators))
    if sol is None:
        raise ValueError("morphism is not surjective, cannot invert")
    back = ModuleMorphism(f.target, f.source, sol)
    if not is_well_defined(back):
        raise ValueError("morphism is not invertible")
    if not equal_morphisms(compose(back, f), identity_morphism(f.source)):
        raise ValueError("morphism is not injective, cannot invert")
    return back


def samples_agree_by_trials(state, limit, hom, phi) -> bool:
    """The sampled oracle of ``lemma_weak_epi`` one trial at a time: draw
    an element's top residue, decode the image of its column under ``phi``
    and compare that with the multiplication by the element, then draw
    the next."""
    for _ in range(lemmas.TRIALS):
        x = state.random_residue(limit.modulus)
        decoded = hom.decode(phi.matrix @ Matrix(limit.ring, 1, 1, ((x,),)))
        if not equal_morphisms(decoded, limit.multiplication_morphisms([x])[0]):
            return False
    return True


def rebuilt_elements(limit, tops):
    """Top residues rebuilt through the string route: each residue's
    string, restricted back to a carrier column by
    :func:`columns_by_preimage`."""
    strings = [residue_string(limit, x) for x in tops]
    return list(columns_by_preimage(limit, strings).entries[0])


def self_small_draws(state):
    """The draws of ``lemma_self_small`` replayed in its order, on a tower
    whose carrier and endomorphisms have more than 64 elements each: one
    residue per hom basis entry for each of ``TRIALS`` endomorphisms, then
    ``TRIALS`` elements' top residues, then the plans and residues of the
    coproduct trials.  Returns the drawn residues."""
    tower = state.tower
    limit = truncated_limit(tower, tower.depth)
    hom = hom_module(limit.carrier, limit.carrier)
    for _ in range(lemmas.TRIALS):
        for entry in hom.basis:
            state.random_residue(entry.annihilator)
    elems = [state.random_residue(limit.modulus) for _ in range(lemmas.TRIALS)]
    coproduct_failure_by_trials(state, normalize(limit.carrier).standard)
    return elems


def coproduct_failure_by_trials(state, std):
    """The coproduct trials of ``lemma_self_small`` one trial at a time:
    draw a plan and its residues, detect the support through each
    projection, rebuild the map from it, then draw the next.  The failed
    entry of the first trial that fails, or None."""
    ring = std.ring
    modulus = annihilator_generator(std)
    count = lemmas.INDEX_SIZE
    summed, injections, projections = direct_sum([std] * count)
    unit = Matrix.identity(ring, std.generators)
    for trial in range(lemmas.TRIALS + 2):
        if trial == 0:
            plan = []
        else:
            size = state.rng.randint(1, min(3, count))
            plan = sorted(state.rng.sample(range(count), size))
        values = {i: state.random_residue(modulus) for i in plan}
        blocks = [unit.scale(values.get(i, ring.zero)) for i in range(count)]
        into_sum = ModuleMorphism(std, summed, vstack(blocks))
        detected = [
            i
            for i in range(count)
            if not is_zero_morphism(compose(projections[i], into_sum))
        ]
        expected = [i for i in plan if ring.rem(values[i], modulus) != ring.zero]
        if detected != expected:
            return failed("support detection missed or invented indices")
        rebuilt = zero_morphism(std, summed)
        for i in detected:
            part = compose(injections[i], compose(projections[i], into_sum))
            rebuilt = ModuleMorphism(std, summed, rebuilt.matrix.add(part.matrix))
        if not equal_morphisms(into_sum, rebuilt):
            return failed(
                "map into the coproduct is not recovered from its finite support"
            )
    return None


# Maps the program no longer builds ----------------------------------------
#
# The verifier leaves what these maps would check to conditions 2 and 4 and
# to the limit's construction (see ``lemma_jjz`` and ``lemma_homjz_a``), so
# they live here, built on the program's own machinery: the tests of that
# machinery and the oracle of the implied checks below use them.


def is_exact(maps) -> bool:
    """Exactness at every interior node of a chain: each image equals the
    next kernel.  ``compose`` raises ``ValueError`` on maps that do not
    chain."""
    return all(
        is_zero_morphism(compose(right, left))
        and lift(left, kernel_columns(right)) is not None
        for left, right in zip(maps, maps[1:])
    )


def tensor_map_left(f: ModuleMorphism, other) -> ModuleMorphism:
    """f (x) id: tensor_module(f.source, other) -> tensor_module(f.target, other)."""
    src = tensor_module(f.source, other)
    dst = tensor_module(f.target, other)
    mat = kronecker(f.matrix, Matrix.identity(f.ring, other.generators))
    return ModuleMorphism(src, dst, mat)


def tensor_map_right(other, f: ModuleMorphism) -> ModuleMorphism:
    """id (x) f: tensor_module(other, f.source) -> tensor_module(other, f.target)."""
    src = tensor_module(other, f.source)
    dst = tensor_module(other, f.target)
    mat = kronecker(Matrix.identity(f.ring, other.generators), f.matrix)
    return ModuleMorphism(src, dst, mat)


def build_transitions(tower) -> list:
    """Every transition of the tower, the one from level 2 down to level 1
    first."""
    return [build_transition(tower, n) for n in range(1, tower.depth)]


def transition_composite(tower, j: int, i: int) -> ModuleMorphism:
    """Composite transition from level i down to level j (identity at j =
    i), as an entry of the program's memoised chain anchored at level j:
    the entry a level shorter composed after the transition from level i.

    ``run_memo`` and ``compose`` are looked up on ``towers``, so a test
    that watches the chain's lookups or compositions there sees these."""
    if not 1 <= j <= i <= tower.depth:
        raise ValueError(f"bad transition range {j}..{i}")
    return towers._compute_chain(_transition_step, tower, j, i)


def _transition_step(tower, i: int, shorter) -> ModuleMorphism:
    if shorter is None:
        return identity_morphism(tower.level(i))
    return towers.compose(shorter, build_transition(tower, i - 1))


def connect_carriers(src, dst, big: Matrix) -> ModuleMorphism:
    """Restrict an ambient-level map to a map between limit carriers, the
    way the program once restricted multiplications (:func:`_connect_all`);
    raises ``TowerError`` when ``big`` does not carry the source carrier
    into the destination carrier."""
    return _connect_all(src, dst, [big])[0]


def _raise_levels(src, rows: int) -> Matrix:
    """Ambient matrix sending component j of ``src`` through g to
    component j+1, cut to the first ``rows`` components."""
    ring = src.ring
    pushed = Matrix.diagonal(ring, [src.tower.ideal.generator] * src.level)
    return vstack([Matrix.zeros(ring, 1, src.level), pushed]).row_slice(0, rows)


def shift_endomorphism(limit) -> ModuleMorphism:
    """The weighted shift on a truncated limit: (x_1, ..., x_N) -> (0,
    g x_1, ..., g x_(N-1))."""
    if limit.level < 2:
        raise ValueError("shift endomorphism needs at least two levels")
    return connect_carriers(limit, limit, _raise_levels(limit, limit.level))


def truncation_morphism(src, dst) -> ModuleMorphism:
    """Forget the top components: limit at level N -> limit at level M < N."""
    if src.tower is not dst.tower or dst.level >= src.level:
        raise ValueError("truncation goes from a deeper limit of the same tower")
    big = Matrix.identity(src.ring, src.level).row_slice(0, dst.level)
    return connect_carriers(src, dst, big)


def shift_embedding(src, dst) -> ModuleMorphism:
    """Embed the limit at level N-1 into the limit at level N as the image
    of the shift: (x_1, ..., x_(N-1)) -> (0, g x_1, ..., g x_(N-1))."""
    if src.tower is not dst.tower or dst.level != src.level + 1:
        raise ValueError("shift embedding raises the level by exactly one")
    return connect_carriers(src, dst, _raise_levels(src, dst.level))


def transition_by_conjugation(tower, n: int) -> ModuleMorphism:
    """The transition from level n+1 down to level n as ``build_transition``
    once built it: restriction along the inclusion of level n, from
    Hom(level n+1, level n+1) to Hom(level n, level n+1), conjugated
    through the canonical isomorphisms of levels n+1 and n, then certified
    well defined and surjective.  Raises ``TowerError`` where those
    canonical maps or certificates fail."""
    s = n + 1
    can_top = canonical_hom_embedding(tower, n + 1, s)
    can_bot = canonical_hom_embedding(tower, n, s)
    restrict = induced_hom(tower.inclusion(n), tower.level(s), "pre")
    delta = compose(invert_isomorphism(can_bot), compose(restrict, can_top))
    if not is_well_defined(delta):
        raise TowerError(f"transition at level {n} is not well defined")
    if not is_surjective(delta):
        raise TowerError(f"transition at level {n} is not surjective")
    return delta


def transitions_unlike_their_conjugation(tower) -> list:
    """The levels n below the top where ``build_transition`` and
    :func:`transition_by_conjugation` disagree, each in its own memo
    scope: one raises and the other does not, or both raise with another
    type or message, or neither raises and the conjugated map differs
    from the transition in level n."""
    fired = []
    for n in range(1, tower.depth):
        delta, error = _transition_or_error(build_transition, tower, n)
        conjugated, conjugation_error = _transition_or_error(
            transition_by_conjugation, tower, n
        )
        if error != conjugation_error:
            fired.append(f"transition {n}: {error} against {conjugation_error}")
        elif delta is not None and not equal_morphisms(conjugated, delta):
            fired.append(f"transition {n}: not the conjugated transition")
    return fired


def _transition_or_error(build, tower, n: int):
    with memo_scope():
        try:
            return build(tower, n), None
        except (TowerError, ValueError) as err:
            return None, (type(err).__name__, str(err))


# Checks the lemmas leave to the conditions and to construction -------------


def hand_built_tower(moduli, multipliers, generator) -> AdicTower:
    """A tower over Z built by hand, past build_adic_tower's checks: levels
    Z/(moduli), inclusions multiplication by ``multipliers`` and the ideal
    (generator)."""
    ring = integer_ring()
    levels = tuple(cyclic_module(ring, r) for r in moduli)
    inclusions = tuple(
        ModuleMorphism(levels[n], levels[n + 1], Matrix.from_rows(ring, [[c]]))
        for n, c in enumerate(multipliers)
    )
    return AdicTower(ring, Ideal(ring, generator), len(levels), levels, inclusions)


def non_cyclic_tower() -> AdicTower:
    """Z/2 -> Z/4 -> Z/8 over Z with the ideal (2), built by hand with
    Z/4 presented on two generators, one of them zero."""
    ring = integer_ring()
    levels = (
        cyclic_module(ring, 2),
        FpModule(Matrix.from_rows(ring, [[4, 0], [0, 1]])),
        cyclic_module(ring, 8),
    )
    inclusions = (
        ModuleMorphism(levels[0], levels[1], Matrix.from_rows(ring, [[2], [0]])),
        ModuleMorphism(levels[1], levels[2], Matrix.from_rows(ring, [[2, 0]])),
    )
    return AdicTower(ring, Ideal(ring, 2), 3, levels, inclusions)


def two_relation_tower() -> AdicTower:
    """Z/2 -> Z/4 -> Z/8 over Z with the ideal (2), built by hand with
    Z/4 presented by the two relations 8 and 12, inclusions by 2."""
    ring = integer_ring()
    levels = (
        cyclic_module(ring, 2),
        FpModule(Matrix.from_rows(ring, [[8, 12]])),
        cyclic_module(ring, 8),
    )
    inclusions = tuple(
        ModuleMorphism(levels[n], levels[n + 1], Matrix.from_rows(ring, [[2]]))
        for n in range(2)
    )
    return AdicTower(ring, Ideal(ring, 2), 3, levels, inclusions)


IMPLIED_LEMMAS = ("jislim", "jjz", "homjz_a", "homjz_b")


def implied_lemma_checks_that_fire(tower, entries) -> list:
    """The checks that ``lemma_jislim``, ``lemma_jjz``, ``lemma_homjz_a``
    and ``lemma_homjz_b`` leave to conditions 2 and 4 and to the limit's
    construction, run as those lemmas ran them, for each of those keys in
    ``entries``: the names of those that fail.  With ``jislim`` also runs
    the comparison that ``lemma_weak_epi`` leaves to the limit's
    construction (``_level_hom_checks``), on every tower whose limits
    ``jislim`` reached, not only on those ``weak_epi`` reaches.

    A ``TowerError`` (or a hom encoder's ``ValueError``) raised while these
    checks build their maps counts as a failure, since it failed the
    lemma; one raised by ``truncated_limit`` ends the projection cone, as
    it ends ``lemma_jislim`` itself, and leaves no limit to compare the
    endomorphisms with.
    """
    checks = {
        "jislim": (_cone_checks, _level_hom_checks),
        "jjz": (_shift_checks,),
        "homjz_a": (_collapse_checks,),
        "homjz_b": (_projection_checks,),
    }
    fired = []
    with memo_scope():
        for key in IMPLIED_LEMMAS:
            if key in entries:
                try:
                    for check in checks[key]:
                        fired += check(tower)
                except (TowerError, ValueError) as err:
                    fired.append(f"{key}: {type(err).__name__}: {err}")
    return fired


def _cone_checks(tower) -> list:
    fired = []
    for n in range(1, tower.depth + 1):
        try:
            lim = truncated_limit(tower, n)
        except TowerError:
            break
        ambient = ambient_limit(lim)
        projections = limit_projections(ambient)
        transitions = [build_transition(tower, k) for k in range(1, n)]
        for k, t in enumerate(transitions, start=1):
            if not equal_morphisms(compose(t, projections[k]), projections[k - 1]):
                fired.append(f"jislim: projection cone at truncation {n}, level {k}")
        if not folds_reach_the_top(ambient, ambient.modules, transitions):
            fired.append(f"jislim: folded limit at truncation {n} is not the top level")
    return fired


def level_hom_limit(tower):
    """The limit of Hom(carrier, level n) over the levels, along
    post-composition with the transitions, for the carrier of the
    truncated limit at the top, built as ``lemma_weak_epi`` once built it;
    its hom modules; the carrier's endomorphism module; and the level
    components of each endomorphism basis morphism, encoded in those hom
    modules and stacked, one ambient column per basis morphism."""
    limit = truncated_limit(tower, tower.depth)
    carrier = limit.carrier
    homs = [hom_module(carrier, level) for level in tower.levels]
    maps = [
        induced_hom(build_transition(tower, n), carrier, "post")
        for n in range(1, tower.depth)
    ]
    modules = [h.module for h in homs]
    lim = towers.inverse_limit(modules, maps)
    endo = hom_module(carrier, carrier)
    projections = limit_projections(ambient_limit(limit))
    cols = hstack(
        [
            vstack(
                [
                    h.encode(compose(p, basis_morphism(endo, t)))
                    for h, p in zip(homs, projections)
                ]
            )
            for t in range(endo.module.generators)
        ]
    )
    return lim, modules, endo, cols


def _level_hom_checks(tower) -> list:
    """The check ``lemma_weak_epi`` leaves to construction: the stacked
    level components of the endomorphisms lie in the limit of the level
    homs, by a preimage through its whole inclusion, and that preimage is
    an isomorphism from the endomorphism module onto the limit."""
    try:
        truncated_limit(tower, tower.depth)
    except TowerError:
        return []
    lim, modules, endo, cols = level_hom_limit(tower)
    sol = preimage_by_inclusion(lim, modules, cols)
    if sol is None:
        return ["weak_epi: endomorphism components are not coherent in the hom system"]
    if not is_isomorphism(ModuleMorphism(endo.module, lim.carrier, sol)):
        return ["weak_epi: endomorphisms do not match the limit of level homs"]
    return []


def _shift_checks(tower) -> list:
    if tower.depth < 2:
        return []
    fired = []
    ring = tower.ring
    bottom = tower.level(1)
    limit = truncated_limit(tower, tower.depth)
    low = truncated_limit(tower, tower.depth - 1)
    shift = shift_endomorphism(limit)
    embed = shift_embedding(low, limit)
    ideal_cols = Matrix.identity(ring, limit.carrier.generators).scale(
        tower.ideal.generator
    )
    if not submodules_equal(limit.carrier, shift.matrix, ideal_cols):
        fired.append("jjz: shift image is not the ideal multiple")
    if not is_isomorphic(cokernel(shift)[0], bottom):
        fired.append("jjz: shift cokernel is not the bottom level")
    if not is_injective(embed):
        fired.append("jjz: shift embedding is not injective")
    if not is_isomorphic(cokernel(embed)[0], bottom):
        fired.append("jjz: shift embedding cokernel is not the bottom level")
    for k in range(1, tower.depth):
        hi = truncated_limit(tower, k + 1)
        lo = truncated_limit(tower, k)
        hi_shift = shift_endomorphism(hi)
        drop = truncation_morphism(hi, lo)
        if not vanishes(drop.target, drop.matrix @ kernel_columns(hi_shift)):
            fired.append(f"jjz: level-{k + 1} shift kernel survives truncation")
        if k >= 2 and not equal_morphisms(
            compose(drop, hi_shift), compose(shift_endomorphism(lo), drop)
        ):
            fired.append(f"jjz: shift and truncation do not commute at level {k}")
    return fired


def _collapse_checks(tower) -> list:
    fired = []
    ring = tower.ring
    depth = tower.depth
    for cap in range(1, depth + 1):
        lim = truncated_limit(tower, cap)
        for n in range(1, cap + 1):
            if not is_isomorphic(tensor_module(tower.level(n), lim.carrier), tower.level(n)):
                fired.append(f"homjz_a: level {n} tensor limit {cap}")
    limit = truncated_limit(tower, depth)
    carrier = limit.carrier
    gens = carrier.generators
    gen_strings = strings_by_inclusion(limit, Matrix.identity(ring, gens))
    action = {}
    for k in range(1, depth + 1):
        row = tuple(gen_strings[t][k - 1] for t in range(gens))
        vk = ModuleMorphism(
            tensor_module(tower.level(k), carrier),
            tower.level(k),
            Matrix(ring, 1, gens, (row,)),
        )
        if not is_well_defined(vk):
            fired.append(f"homjz_a: action map at level {k} is not well defined")
        elif not is_isomorphism(vk):
            fired.append(f"homjz_a: action map at level {k} is not an isomorphism")
        action[k] = vk
    for n in range(1, depth):
        incl = tower.inclusion(n)
        up = tensor_map_left(incl, carrier)
        if not equal_morphisms(compose(action[n + 1], up), compose(incl, action[n])):
            fired.append(f"homjz_a: inclusion action square at level {n}")
        to_bottom = transition_composite(tower, 1, n + 1)
        down = tensor_map_left(to_bottom, carrier)
        if not equal_morphisms(
            compose(action[1], down), compose(to_bottom, action[n + 1])
        ):
            fired.append(f"homjz_a: bottom action square at level {n}")
        if not is_exact([up, down]) or not is_surjective(down):
            fired.append(f"homjz_a: tensored row at level {n}")
    if depth >= 2:
        bottom_tensor = tensor_map_right(tower.level(1), shift_endomorphism(limit))
        if not is_zero_morphism(bottom_tensor):
            fired.append("homjz_a: bottom tensor of the shift")
    return fired


def condition_5_collapse_checks(tower) -> list:
    """The two checks ``check_condition_5`` leaves to its per-level test,
    as it ran them: on each level m whose quotient by the ideal action is
    the bottom level, the multiplication map from level m (x) bottom onto
    that quotient is well defined, and after the isomorphism onto the
    bottom level it is an isomorphism.  Returns the witnesses of the
    checks that fail; a level whose quotient is not the bottom level,
    where the condition fails first, is passed over."""
    ring = tower.ring
    g = tower.ideal.generator
    bottom = tower.level(1)
    fired = []
    for m in range(1, tower.depth + 1):
        level = tower.level(m)
        scaled = Matrix.identity(ring, level.generators).scale(g)
        quot, _ = cokernel(ModuleMorphism(level, level, scaled))
        iso = find_isomorphism(quot, bottom)
        if iso is None:
            continue
        mult = ModuleMorphism(
            tensor_module(level, bottom), quot, Matrix.identity(ring, 1)
        )
        if not is_well_defined(mult):
            fired.append(
                f"multiplication map on level {m} tensor bottom is not well defined"
            )
        elif not is_isomorphism(compose(iso, mult)):
            fired.append(
                f"multiplication map level {m} (x) bottom -> bottom is not an "
                "isomorphism"
            )
    return fired


def condition_3_direct_route_checks(tower) -> list:
    """The direct route that ``check_condition_3`` leaves to condition 3'
    once 3' passed, as it once ran it: every inclusion is a morphism, and
    restriction along the inclusion of level m into Hom(-, level s), s the
    stabilized index max(hom_into_colimit(m+1), hom_into_colimit(m)), is
    onto, in the order of m.  For towers whose condition 3' passed; returns
    the witnesses of the checks that fail.  A hom system still moving at
    the top level ends the checks, as it fails the condition."""
    fired = []
    with memo_scope():
        for m in range(1, tower.depth):
            if not is_well_defined(tower.inclusion(m)):
                fired.append(f"condition_3: inclusion at level {m} is not a morphism")
        if fired:
            return fired
        for m in range(1, tower.depth):
            try:
                s = max(hom_into_colimit(tower, m + 1), hom_into_colimit(tower, m))
            except StabilizationError:
                break
            if not is_surjective(induced_hom(tower.inclusion(m), tower.level(s), "pre")):
                fired.append(
                    f"condition_3: restriction at level {m} into level {s} is not onto"
                )
    return fired


def image_stabilization_checks(tower) -> list:
    """The four ``mittag_leffler_check`` calls that ``lemma_zml`` and
    ``lemma_jjz`` once made, as they made them: the levels along the
    transitions (``zml``, and ``jjz``'s ``mid``), the levels below the top
    along theirs (``sub``) and one copy of the bottom level per level along
    identities (``quotient``), the last three from depth 2, where ``jjz``
    runs.  For towers where ``zml`` ran; returns the systems whose verdict
    is not the surjectivity short-circuit that those entries record, and a
    transition that raises ``TowerError``."""
    fired = []
    with memo_scope():
        try:
            transitions = build_transitions(tower)
        except TowerError as err:
            return [f"zml: TowerError: {err}"]
        levels = list(tower.levels)
        systems = [("zml", levels, transitions)]
        if tower.depth >= 2:
            bottom = tower.level(1)
            identities = [identity_morphism(bottom) for _ in range(tower.depth - 1)]
            systems += [
                ("jjz sub", levels[:-1], transitions[:-1]),
                ("jjz mid", levels, transitions),
                ("jjz quotient", [bottom] * tower.depth, identities),
            ]
        for name, modules, maps in systems:
            # the horizon only matters once a map is not onto; 8 is the
            # verifier's default
            verdict = mittag_leffler_check(modules, maps, 8).verdict
            if verdict != ML_HOLDS_BY_SURJECTIVITY:
                fired.append(f"{name}: {verdict}")
    return fired


def _projection_checks(tower) -> list:
    fired = []
    for n in range(1, tower.depth + 1):
        for cap in range(n, tower.depth + 1):
            lim = truncated_limit(tower, cap)
            hom = hom_module(lim.carrier, tower.level(n))
            col = hom.encode(limit_projections(ambient_limit(lim))[n - 1])
            can = ModuleMorphism(tower.level(n), hom.module, col)
            if not is_isomorphism(can):
                fired.append(f"homjz_b: projection {n} of limit {cap}")
    return fired


def quotient_by_all_splits(state):
    """``lemma_quotient`` with its three checks on every split (m, n), in
    the order of the totals m + n and then of m, where the lemma checks
    only the split (1, total - 1) at each total."""
    tower = state.tower
    top = tower.level(tower.depth)
    pairs = []
    for total in range(2, tower.depth + 1):
        for m in range(1, total):
            n = total - m
            incl = inclusion_composite(tower, m, total)
            if not is_injective(incl):
                return failed(f"split ({m}, {n}): inject has nontrivial kernel")
            if not is_isomorphic(cokernel(incl)[0], tower.level(n)):
                return failed(f"split ({m}, {n}): quotient is not level {n}")
            if not is_surjective(induced_hom(incl, top, "pre")):
                return failed(
                    f"dual sequence at split ({m}, {n}): surject is not onto"
                )
            pairs.append([m, n])
    if not pairs:
        return passed("no level pairs below depth 2", pairs=[])
    return passed(
        "every split is short exact with multiplicative orders and the hom "
        "dual swaps the ends",
        pairs=pairs,
        duality_pairs=len(pairs),
        duality_reading="swapped",
    )


@contextmanager
def every_pair_checked():
    """While open, ``adjacent_pairs_pass`` is false on every tower, so
    conditions 2, 3' and 3 check every level pair, and ``quotient`` runs
    :func:`quotient_by_all_splits`."""
    compute = towers._compute_adjacent_pairs_pass
    runner = pipeline.RUNNERS["quotient"]
    towers._compute_adjacent_pairs_pass = lambda tower: False
    pipeline.RUNNERS["quotient"] = quotient_by_all_splits
    try:
        yield
    finally:
        towers._compute_adjacent_pairs_pass = compute
        pipeline.RUNNERS["quotient"] = runner


def report_text(report) -> str:
    """A report's JSON tree as sorted, compact text, for comparison and
    digests."""
    return json.dumps(report.to_json_tree(), sort_keys=True, separators=(",", ":"))


def adjacent_and_every_pair_reports(tower) -> tuple:
    """The texts of ``verify_tower(tower)`` as is and inside
    :func:`every_pair_checked`."""
    fast = report_text(verify_tower(tower))
    with every_pair_checked():
        slow = report_text(verify_tower(tower))
    return fast, slow


# Definitions on enumerated residues ----------------------------------------
#
# For a hand-built tower over Z, with levels Z/a_n and inclusions
# multiplication by c_n, these decide what the program decides through
# presentations and normal forms, from the statements alone: every
# residue is listed, so nothing here reads a Smith form, a hom module or a
# tensor module.


def residue_map_is_well_defined(upper: int, lower: int) -> bool:
    """x mod ``upper`` -> x mod ``lower`` is a function: adding ``upper`` to
    any residue x leaves x mod ``lower`` unchanged."""
    return all((x + upper) % lower == x % lower for x in range(upper))


def homs_by_definition(a: int, b: int) -> set:
    """Hom(Z/a, Z/b) as the images y of 1: the y mod b with a.y = 0 mod b."""
    return {y for y in range(b) if a * y % b == 0}


def canonical_map_is_bijective(a: int, b: int, c: int) -> bool:
    """k -> (1 -> k.c) is a bijection from Z/a onto Hom(Z/a, Z/b): c is a
    hom, and its a multiples are distinct and are every hom."""
    homs = homs_by_definition(a, b)
    if c % b not in homs:
        return False
    multiples = {k * c % b for k in range(a)}
    return len(multiples) == a and multiples == homs


def transition_exists_by_definition(moduli, multipliers, n: int) -> bool:
    """The canonical maps that the transition from level n+1 down to level
    n asks for are bijections: (n+1, n+1), whose composite inclusion is
    the identity, and (n, n+1), the inclusion c_n."""
    upper, lower = moduli[n], moduli[n - 1]
    return canonical_map_is_bijective(upper, upper, 1) and canonical_map_is_bijective(
        lower, upper, multipliers[n - 1]
    )


def condition_5_by_definition(moduli, generator: int) -> bool:
    """Each level modulo the ideal action is the bottom level: Z/a_m over
    the multiples g.x has as many classes as Z/a_1 has residues.  Both
    groups are cyclic, so their sizes decide."""
    bottom = moduli[0]
    for a in moduli:
        multiples = {generator * x % a for x in range(a)}
        if a // len(multiples) != bottom:
            return False
    return True
