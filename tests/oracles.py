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
map, and the preimage under a limit's whole inclusion (for restrictions of
ambient maps and for the hom limit of ``lemma_weak_epi``), share no code
with the level-by-level fold and the lift through the certified top
projection in ``towers``; ``limit_preimage_by_levels`` checks that lift
with one product per level projection, where ``limit_preimage`` takes
one product with the whole inclusion.  A limit keeps its inclusion as a
bare matrix; ``inclusion_morphism`` makes it a morphism into the direct
sum of the levels, which only these oracles build.  The composites of
inclusions and transitions as one plain chain of ``compose`` calls,
transitions from the top level down, share no code with the memoised
chain behind ``inclusion_composite`` and this module's
``transition_composite``, which strides back to stored entries and
composes transitions from the bottom level up.  The componentwise
product and sum of coherent residue strings share no code with
``multiplication_morphisms``, which restricts diagonal ambient maps to the
limit carrier through the top projection.

Injectivity as a zero kernel module shares no code with the counting
that decides it for finite modules in ``fpmod``, nor with the test that
the kernel columns vanish in the source, which decides it for modules
with a free part.  The residue map from one level onto the next lower,
written directly as the identity on the generator, shares no code with
the transitions that ``build_transition`` reconstructs through hom
modules.

The order and zero test read off the full Smith form (with Q, whose
transforms ``test_matrices`` checks against determinantal divisors) share
no code with the normal form behind ``module_order`` and
``is_zero_module`` beyond the pivot rule of the elimination.  The explicit
map of ``find_isomorphism``, checked to be an isomorphism, is the oracle
for ``is_isomorphic``.  The map induced on hom modules by decoding,
composing and encoding one basis morphism at a time shares no code with
the two products and one batch encoding of ``induced_hom``.  One block
encoded on its own, its morphism test read off the invariant factors
(an entry times its source factor in its target factor's ideal), is the
oracle for the cell encoder ``HomModule.encode_cells``, which makes one
pass per cell over a whole batch.

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
products: the loops share only the lift and the restriction of one
element (``columns`` and ``multiplication_morphisms`` of a batch of one),
not the batching, the comparison or the block bookkeeping.  The sampled
elements of ``lemma_self_small`` are multiplied as drawn;
``rebuilt_elements`` rebuilds them from their carrier columns instead,
and ``self_small_draws`` replays the entry's draws in their order.  Zero
maps and the zero test of a map (``zero_morphism``, ``is_zero_morphism``)
serve those loops and the tests.

Maps the verifier no longer builds live at the end of this module, on the
program's own machinery: the shift of a truncated limit, truncations, the
shift embedding, tensored maps, composite transitions, and ``is_exact``.
With them, ``implied_lemma_checks_that_fire`` runs the checks that
``jislim``, ``jjz``, ``homjz_a`` and ``homjz_b`` leave to conditions 2
and 4 and to the limit's construction, on any tower those entries reach.

``quotient_by_all_splits`` runs the three checks of ``lemma_quotient`` on
every split, where the lemma checks one split per total.  Inside
``every_pair_checked``, ``adjacent_pairs_pass`` is false on every tower
and that loop stands in for the lemma, so conditions 2, 3' and 3 and
``quotient`` check every level pair;
``adjacent_and_every_pair_reports`` sets that report beside the
verifier's own.
"""

import itertools
import json
from contextlib import contextmanager

from adictower import towers
from adictower.exactalg.matrices import (
    Matrix,
    hstack,
    kronecker,
    smith_form,
    vstack,
)
from adictower.exactalg.rings import Ideal, integer_ring
from adictower.fpmod.functors import hom_module, induced_hom, tensor_module
from adictower.fpmod.modules import (
    ModuleMorphism,
    annihilator_generator,
    cyclic_module,
    direct_sum,
    free_module,
    is_zero_module,
    normalize,
)
from adictower.fpmod.morphisms import (
    cokernel,
    compose,
    equal_morphisms,
    find_isomorphism,
    identity_morphism,
    is_injective,
    is_isomorphic,
    is_isomorphism,
    is_surjective,
    is_well_defined,
    kernel,
    kernel_columns,
    lift,
    submodules_equal,
    vanishes,
)
from adictower.memo import memo_scope
from adictower.towers import (
    AdicTower,
    TowerError,
    build_transition,
    inclusion_composite,
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


def inclusion_morphism(limit, modules) -> ModuleMorphism:
    """The inclusion matrix of ``limit`` as a morphism from its carrier
    into the direct sum of ``modules``, which the limit never builds."""
    return ModuleMorphism(limit.carrier, direct_sum(modules)[0], limit.include)


def truncated_levels(limit):
    """The tower levels 1..N of a truncated limit at level N."""
    return list(limit.tower.levels[: limit.level])


def preimage_by_inclusion(limit, modules, amb: Matrix):
    """Carrier columns that the whole inclusion of ``limit`` into the sum
    of ``modules`` maps onto the ambient columns ``amb``, or None."""
    return lift(inclusion_morphism(limit, modules), amb)


def limit_preimage_by_levels(limit, amb: Matrix):
    """``towers.limit_preimage`` one level at a time: the lift of the top
    rows of ``amb`` through the top projection, kept when each projection
    maps it onto that level's rows of ``amb``, by one product, one
    difference and one ``vanishes`` per level."""
    top = limit.projections[-1]
    rows = amb.rows
    cols = lift(top, amb.row_slice(rows - top.target.generators, rows))
    if cols is None:
        return None
    start = 0
    for p in limit.projections:
        stop = start + p.target.generators
        diff = (p.matrix @ cols).sub(amb.row_slice(start, stop))
        if not vanishes(p.target, diff):
            return None
        start = stop
    return cols


def connect_by_inclusion(src, dst, big: Matrix) -> ModuleMorphism:
    """Restriction of an ambient map between truncated limits by a lift
    through the whole destination inclusion."""
    mat = preimage_by_inclusion(dst, truncated_levels(dst), big @ src.include)
    if mat is None:
        raise TowerError("ambient map does not preserve the limit carriers")
    out = ModuleMorphism(src.carrier, dst.carrier, mat)
    if not is_well_defined(out):
        raise TowerError("restricted carrier map is not well defined")
    return out


def coherent_product(limit, a, b):
    """Componentwise product of two coherent strings of ``limit``."""
    ring = limit.ring
    return limit.element([ring.mul(x, y) for x, y in zip(a.components, b.components)])


def coherent_sum(limit, a, b):
    """Componentwise sum of two coherent strings of ``limit``."""
    ring = limit.ring
    return limit.element([ring.add(x, y) for x, y in zip(a.components, b.components)])


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


def induced_hom_by_basis(f: ModuleMorphism, other, variance: str) -> ModuleMorphism:
    """The map induced on hom modules, one basis morphism at a time: decode
    it, compose with f, encode the composite."""
    if variance == "pre":
        src_hom, dst_hom = hom_module(f.target, other), hom_module(f.source, other)
        images = [compose(src_hom.basis_morphism(t), f) for t in range(len(src_hom.basis))]
    else:
        src_hom, dst_hom = hom_module(other, f.source), hom_module(other, f.target)
        images = [compose(f, src_hom.basis_morphism(t)) for t in range(len(src_hom.basis))]
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


def samples_agree_by_trials(state, limit, hom, phi) -> bool:
    """The sampled oracle of ``lemma_weak_epi`` one trial at a time: draw
    an element, lift its column, decode its image under ``phi`` and
    compare that with the multiplication by the element, then draw the
    next.  Raises ``TowerError`` for an element outside the carrier."""
    for _ in range(lemmas.TRIALS):
        elem = state.random_coherent(limit)
        decoded = hom.decode(phi.matrix @ limit.columns([elem]))
        if not equal_morphisms(decoded, limit.multiplication_morphisms([elem])[0]):
            return False
    return True


def rebuilt_elements(limit, elems):
    """Coherent elements rebuilt from their carrier columns, one lift and
    one product with the inclusion: what ``lemma_self_small`` once
    multiplied by in place of the elements it drew."""
    return limit.elements_from_columns(limit.columns(elems))


def self_small_draws(state):
    """The draws of ``lemma_self_small`` replayed in its order, on a tower
    whose carrier and endomorphisms have more than 64 elements each: one
    residue per hom basis entry for each of ``TRIALS`` endomorphisms, then
    ``TRIALS`` coherent elements, then the plans and residues of the
    coproduct trials.  Returns the drawn elements."""
    tower = state.tower
    limit = truncated_limit(tower, tower.depth)
    hom = hom_module(limit.carrier, limit.carrier)
    for _ in range(lemmas.TRIALS):
        for entry in hom.basis:
            state.random_residue(entry.annihilator)
    elems = [state.random_coherent(limit) for _ in range(lemmas.TRIALS)]
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


def transition_composite(tower, j: int, i: int) -> ModuleMorphism:
    """Composite transition from level i down to level j (identity at j =
    i), as an entry of the program's memoised chain anchored at level j:
    the entry a level shorter composed after the transition from level i.

    ``run_memo`` and ``compose`` are looked up on ``towers``, so a test
    that watches the chain's lookups or compositions there sees these."""
    if not 1 <= j <= i <= tower.depth:
        raise ValueError(f"bad transition range {j}..{i}")
    return towers.run_memo(towers._compute_chain, _transition_step, tower, j, i)


def _transition_step(tower, i: int, shorter) -> ModuleMorphism:
    if shorter is None:
        return identity_morphism(tower.level(i))
    return towers.compose(shorter, build_transition(tower, i - 1))


def connect_carriers(src, dst, big: Matrix) -> ModuleMorphism:
    """Restrict an ambient-level map to a map between limit carriers, the
    way the program restricts multiplications (``towers._connect_all``);
    raises ``TowerError`` when ``big`` does not carry the source carrier
    into the destination carrier."""
    return towers._connect_all(src, dst, [big])[0]


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


IMPLIED_LEMMAS = ("jislim", "jjz", "homjz_a", "homjz_b")


def implied_lemma_checks_that_fire(tower, entries) -> list:
    """The checks that ``lemma_jislim``, ``lemma_jjz``, ``lemma_homjz_a``
    and ``lemma_homjz_b`` leave to conditions 2 and 4 and to the limit's
    construction, run as those lemmas ran them, for each of those keys in
    ``entries``: the names of those that fail.

    A ``TowerError`` (or a hom encoder's ``ValueError``) raised while these
    checks build their maps counts as a failure, since it failed the
    lemma; one raised by ``truncated_limit`` ends the projection cone, as
    it ends ``lemma_jislim`` itself.
    """
    checks = {
        "jislim": _cone_checks,
        "jjz": _shift_checks,
        "homjz_a": _collapse_checks,
        "homjz_b": _projection_checks,
    }
    fired = []
    with memo_scope():
        for key in IMPLIED_LEMMAS:
            if key in entries:
                try:
                    fired += checks[key](tower)
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
        for k in range(1, n):
            step = compose(build_transition(tower, k), lim.projections[k])
            if not equal_morphisms(step, lim.projections[k - 1]):
                fired.append(f"jislim: projection cone at truncation {n}, level {k}")
    return fired


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
    gen_elements = limit.elements_from_columns(Matrix.identity(ring, gens))
    action = {}
    for k in range(1, depth + 1):
        row = tuple(gen_elements[t].components[k - 1] for t in range(gens))
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


def _projection_checks(tower) -> list:
    fired = []
    for n in range(1, tower.depth + 1):
        for cap in range(n, tower.depth + 1):
            lim = truncated_limit(tower, cap)
            hom = hom_module(lim.carrier, tower.level(n))
            col = hom.encode(lim.projections[n - 1])
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
