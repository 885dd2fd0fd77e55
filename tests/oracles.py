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
projection in ``towers``.  A limit keeps its inclusion as a bare matrix;
``inclusion_morphism`` makes it a morphism into the direct sum of the
levels, which only these oracles build.  The composites of inclusions and
transitions as one plain chain of ``compose`` calls, transitions from the
top level down, share no code with the memoised chain behind
``inclusion_composite`` and ``transition_composite``, which strides back to
stored entries and composes transitions from the bottom level up.  The
componentwise product and sum of coherent residue strings share no code
with ``multiplication_morphism``, which restricts a diagonal ambient map to
the limit carrier through the top projection.

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
"""

import itertools

from adictower.exactalg.matrices import Matrix, hstack, smith_form
from adictower.fpmod.functors import hom_module
from adictower.fpmod.modules import (
    ModuleMorphism,
    direct_sum,
    free_module,
    is_zero_module,
    normalize,
)
from adictower.fpmod.morphisms import (
    compose,
    find_isomorphism,
    identity_morphism,
    is_isomorphism,
    is_well_defined,
    kernel,
    lift,
)
from adictower.towers import TowerError, build_transition


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
