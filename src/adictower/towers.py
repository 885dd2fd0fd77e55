"""Adic filtration towers and their truncated inverse limits.

A tower over a Euclidean domain R and a principal ideal (g) is the chain of
cyclic level modules R/(g^n) for n = 1..depth, linked upward by
multiplication-by-g inclusions.  Downward transition maps between levels
are not written out directly: they are reconstructed through stabilized hom
modules into high levels and certified surjective.  The truncated inverse
limit is folded one level at a time, as an iterated pullback: the limit of
levels 1..n+1 is the kernel of ``(l, x) -> top_n(l) - t_n(x)`` on the sum
of the limit of levels 1..n and level n+1.  Each kernel is handed on in
its normal form: the carrier is the invariant-factor presentation (one
generator for a cyclic limit), and the inclusion matrix (each carrier
generator's components in the levels, stacked) and the level projections,
its blocks of rows, go through the Smith-certified ``from_standard``
isomorphism.  The direct sum of all the levels is never built: the fold
sums two modules at a time.  The limit carrier carries an exact ring
structure (componentwise multiplication of coherent residue strings).
Multiplication by a coherent element is written on the ambient sum as
the diagonal of its components (``Matrix.diagonal``) and restricted to
the carrier through the top projection, which every
truncated limit certifies an isomorphism: the top row is lifted by
:func:`adictower.fpmod.morphisms.lift`, and the lift is kept only when
its image under the inclusion, one product, agrees with the ambient map
level by level (:func:`limit_preimage`).  Carrier coordinates of a
coherent element are restricted the same way.

Transitions, composite inclusions, stabilized homs, truncated limits,
limit folds and multiplication maps are memoised per tower (and per
limit, and per element) for the length of a
:func:`adictower.memo.memo_scope`; the multiplication maps and the
carrier coordinates of a batch of elements are restricted together.  A
fold is keyed by its modules and maps, so a limit of modules and maps
equal to the tower's levels and transitions (the limit of the level homs
of :func:`adictower.verify.lemmas.lemma_weak_epi`) reuses the truncated
limit's folds.
Composite inclusions and truncated limits are entries of one chain
(:func:`_compute_chain`), each stored once and built by one step from the
entry a level shorter.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .exactalg.matrices import Matrix, hstack, vstack
from .exactalg.rings import Ideal, Ring, RingElement, RingError
from .fpmod.modules import (
    FpModule,
    ModuleMorphism,
    cyclic_module,
    direct_sum,
    normalize,
)
from .fpmod.functors import hom_module, induced_hom
from .fpmod.morphisms import (
    compose,
    identity_morphism,
    invert_isomorphism,
    is_injective,
    is_isomorphism,
    is_surjective,
    is_well_defined,
    kernel,
    lift,
    submodules_equal,
    vanishes,
)
from .memo import memo_scope, run_memo, run_memo_each


class TowerError(RuntimeError):
    """A structural tower invariant failed to verify."""


class StabilizationError(TowerError):
    """A hom system did not become constant within the available depth."""


class AdicTower:
    """Levels R/(g^n) with their multiplication-by-g inclusions."""

    def __init__(
        self,
        ring: Ring,
        ideal: Ideal,
        depth: int,
        levels: Tuple[FpModule, ...],
        inclusions: Tuple[ModuleMorphism, ...],
    ):
        self.ring = ring
        self.ideal = ideal
        self.depth = depth
        self.levels = levels
        self.inclusions = inclusions

    def level(self, n: int) -> FpModule:
        if not 1 <= n <= self.depth:
            raise ValueError(f"level {n} outside 1..{self.depth}")
        return self.levels[n - 1]

    def inclusion(self, n: int) -> ModuleMorphism:
        if not 1 <= n <= self.depth - 1:
            raise ValueError(f"no inclusion at level {n}")
        return self.inclusions[n - 1]

    def level_modulus(self, n: int) -> RingElement:
        """g^n, read off the relation of level n."""
        return self.level(n).relations.entries[0][0]


def build_adic_tower(ring: Ring, generator, depth: int) -> AdicTower:
    """Construct and validate the tower for the ideal (generator).

    Rejects zero or unit generators, non-positive depth and a top level
    whose modulus ``ring.format`` cannot write; checks that every
    inclusion is well defined and injective.
    """
    if depth < 1:
        raise RingError(f"depth must be at least 1, got {depth}")
    ideal = Ideal(ring, generator)
    g = ideal.generator
    ring.check_formattable_power(g, depth)
    # g^n is one product from g^(n-1); level_modulus reads it back off the
    # level's relation
    modulus = g
    levels = [cyclic_module(ring, g)]
    for _ in range(1, depth):
        modulus = ring.mul(modulus, g)
        levels.append(cyclic_module(ring, modulus))
    levels = tuple(levels)
    inclusions = []
    for n in range(1, depth):
        mu = ModuleMorphism(
            levels[n - 1], levels[n], Matrix.from_rows(ring, [[g]])
        )
        if not is_well_defined(mu):
            raise TowerError(f"inclusion at level {n} is not well defined")
        if not is_injective(mu):
            raise TowerError(f"inclusion at level {n} is not injective")
        inclusions.append(mu)
    return AdicTower(ring, ideal, depth, levels, tuple(inclusions))


def inclusion_composite(tower: AdicTower, m: int, n: int) -> ModuleMorphism:
    """Composite inclusion from level m up to level n (identity when equal):
    the last inclusion composed onto the chain entry a level shorter."""
    if not 1 <= m <= n <= tower.depth:
        raise ValueError(f"bad inclusion range {m}..{n}")
    return run_memo(_compute_chain, _inclusion_step, tower, m, n)


def _inclusion_step(tower: AdicTower, n: int, shorter) -> ModuleMorphism:
    if shorter is None:
        return identity_morphism(tower.level(n))
    return compose(tower.inclusion(n - 1), shorter)


_STRIDES = (64, 16, 4, 1)


def _compute_chain(step, tower: AdicTower, lo: int, hi: int):
    """Entry ``hi`` of the chain that ``step`` builds up from level ``lo``:
    ``step(tower, lo, None)`` at ``lo``, then ``step(tower, hi, entry at
    hi - 1)``, memoised by ``(step, tower, lo, hi)``.

    A missing entry first asks for the entries ``_STRIDES`` levels below.
    On a warm memo each is one lookup; on a cold one the misses run down by
    64 levels, then by 16, by 4 and by 1, so they recurse about depth/64 + 9
    levels deep.  Outside a :func:`adictower.memo.memo_scope` the call opens
    a scope of its own, so a long chain costs as many steps there as inside.
    """
    if hi == lo:
        return step(tower, lo, None)
    with memo_scope():
        for stride in _STRIDES:
            if hi - stride >= lo:
                shorter = run_memo(_compute_chain, step, tower, lo, hi - stride)
        return step(tower, hi, shorter)


def hom_into_colimit(tower: AdicTower, m: int) -> int:
    """Index from which Hom(level m, level n) is stable as n grows to depth.

    The connecting maps are postcomposition with the inclusions.  Returns
    the minimal index from which every later connecting map is an
    isomorphism; raises StabilizationError when the final step is still
    moving.
    """
    if not 1 <= m <= tower.depth:
        raise ValueError(f"level {m} outside 1..{tower.depth}")
    return run_memo(_compute_colimit, tower, m)


def _compute_colimit(tower: AdicTower, m: int) -> int:
    zm = tower.level(m)
    flags = []
    for n in range(m, tower.depth):
        step = induced_hom(tower.inclusion(n), zm, "post")
        flags.append(is_isomorphism(step))
    if flags and not flags[-1]:
        raise StabilizationError(
            f"hom system at level {m} still moving at depth {tower.depth}"
        )
    stable_index = tower.depth
    for k in range(tower.depth - 1, m - 1, -1):
        if flags[k - m]:
            stable_index = k
        else:
            break
    return stable_index


def canonical_hom_embedding(tower: AdicTower, m: int, s: int) -> ModuleMorphism:
    """The map level_m -> Hom(level_m, level_s) sending the generator to the
    composite inclusion, certified an isomorphism.  Its target is the
    module of ``hom_module(level_m, level_s)``."""
    hom = hom_module(tower.level(m), tower.level(s))
    try:
        col = hom.encode(inclusion_composite(tower, m, s))
    except ValueError:
        raise TowerError(
            f"composite inclusion of level {m} into level {s} is not a morphism"
        ) from None
    can = ModuleMorphism(tower.level(m), hom.module, col)
    if not is_isomorphism(can):
        raise TowerError(
            f"canonical map into Hom(level {m}, level {s}) is not an isomorphism"
        )
    return can


def build_transition(tower: AdicTower, n: int) -> ModuleMorphism:
    """Transition map from level n+1 down to level n.

    Reconstructed, not written down: conjugate precomposition-with-inclusion
    between the stabilized hom values Hom(level n+1, level s) and
    Hom(level n, level s) at s = n+1 through the canonical isomorphisms.
    Certified surjective.  Whatever the tower, it sends the generator to
    the generator: the canonical map of level n+1 sends it to the identity,
    restriction turns that into the inclusion, and the canonical map of
    level n sends the generator to the inclusion.  So it is the reduction.
    """
    if not 1 <= n <= tower.depth - 1:
        raise ValueError(f"no transition at level {n}")
    return run_memo(_compute_transition, tower, n)


def _compute_transition(tower: AdicTower, n: int) -> ModuleMorphism:
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


def build_transitions(tower: AdicTower) -> List[ModuleMorphism]:
    return [build_transition(tower, n) for n in range(1, tower.depth)]


ML_HOLDS = "holds"
ML_HOLDS_BY_SURJECTIVITY = "holds-by-surjectivity"
ML_NOT_STABILIZED = "not-stabilized-within-horizon"


class MittagLefflerCheck(NamedTuple):
    verdict: str
    surjective_maps: Tuple[bool, ...]


def mittag_leffler_check(
    modules: List[FpModule], maps: List[ModuleMorphism], horizon: int
) -> MittagLefflerCheck:
    """Image-stabilization check for an inverse system.

    ``maps[k]`` must run from ``modules[k+1]`` to ``modules[k]``.  If every
    map is surjective the condition holds outright.  Otherwise, for each
    index the images of the composites from higher levels are compared as
    submodules over a window of ``horizon`` steps; the verdict reports
    whether each image chain has flattened by the end of its window.
    """
    if len(maps) != len(modules) - 1:
        raise ValueError("need exactly one map between consecutive modules")
    for k, f in enumerate(maps):
        if f.source != modules[k + 1] or f.target != modules[k]:
            raise ValueError(f"map {k} does not match its modules")
    surjective = tuple(is_surjective(f) for f in maps)
    if all(surjective):
        return MittagLefflerCheck(ML_HOLDS_BY_SURJECTIVITY, surjective)
    verdict = ML_HOLDS
    for i in range(1, len(modules) + 1):
        window = min(horizon, len(modules) - i)
        if window == 0:
            continue
        target = modules[i - 1]
        composite = identity_morphism(target)
        images = [composite.matrix]
        for t in range(1, window + 1):
            composite = compose(composite, maps[i + t - 2])
            images.append(composite.matrix)
        start = window
        for t in range(window - 1, -1, -1):
            if submodules_equal(target, images[t], images[window]):
                start = t
            else:
                break
        if start == window:
            verdict = ML_NOT_STABILIZED
    return MittagLefflerCheck(verdict, surjective)


class InverseLimit(NamedTuple):
    carrier: FpModule
    include: Matrix
    projections: List[ModuleMorphism]


def inverse_limit(modules: List[FpModule], maps: List[ModuleMorphism]) -> InverseLimit:
    """Limit of a finite inverse system, folded one level at a time.

    The limit of the first module is its normal form.  The limit of the
    first n+1 modules is the pullback of the limit L_n of the first n and
    ``modules[n]`` over ``modules[n-1]``: the kernel of ``(l, x) ->
    top_n(l) - maps[n-1](x)`` on ``L_n (+) modules[n]``, a map on two
    summands however many levels L_n spans (a sequential limit is an
    iterated pullback).  Each kernel is handed on in normal form, so a
    cyclic limit has one generator.  The inclusion matrix into the modules
    is ``[include_n . p_1 ; p_2]`` times the certified isomorphism
    ``from_standard``, and the level projections are its blocks of rows.
    """
    if not modules:
        raise ValueError("inverse limit of an empty system")
    if len(maps) != len(modules) - 1:
        raise ValueError("need exactly one map between consecutive modules")
    carrier, include = _normal_carrier(
        modules[0], Matrix.identity(modules[0].ring, modules[0].generators)
    )
    for n, f in enumerate(maps):
        carrier, include = run_memo(
            _fold_level, carrier, include, modules[n], modules[n + 1], f
        )
    return _assemble(carrier, include, modules)


def _normal_carrier(carrier: FpModule, include: Matrix) -> Tuple[FpModule, Matrix]:
    """The carrier replaced by its normal form, through ``from_standard``."""
    norm = normalize(carrier)
    return norm.standard, include @ norm.from_standard


def _fold_level(
    carrier: FpModule,
    include: Matrix,
    top: FpModule,
    level: FpModule,
    f: ModuleMorphism,
) -> Tuple[FpModule, Matrix]:
    """Carrier and ambient inclusion matrix of the limit one level up.

    ``carrier`` is the limit so far and ``include`` its inclusion matrix
    into the levels so far, the last of which is ``top``; ``f`` maps the
    new ``level`` down onto ``top``.  Callers go through ``run_memo``, so
    equal arguments fold once per run.
    """
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


def _assemble(
    carrier: FpModule, include: Matrix, modules: List[FpModule]
) -> InverseLimit:
    """The limit with its inclusion matrix into ``modules`` and the level
    projections, the inclusion's blocks of rows."""
    projections = []
    start = 0
    for m in modules:
        stop = start + m.generators
        projections.append(ModuleMorphism(carrier, m, include.row_slice(start, stop)))
        start = stop
    return InverseLimit(carrier, include, projections)


class CoherentElement(NamedTuple):
    """Residue string (x_1, ..., x_N), canonical at each level."""

    level: int
    components: Tuple[RingElement, ...]


class TruncatedLimit:
    """Inverse limit of the first N tower levels, with its ring structure.

    ``maps[k]`` is the transition from level k+2 down to level k+1, as
    passed to :func:`inverse_limit`.  ``include`` is the inclusion matrix:
    column t holds the components of carrier generator t in levels
    1..upto, one block of rows per level.
    """

    def __init__(
        self,
        tower: AdicTower,
        upto: int,
        lim: InverseLimit,
        maps: List[ModuleMorphism],
    ):
        self.tower = tower
        self.level = upto
        self.maps = maps
        self.carrier = lim.carrier
        self.include = lim.include
        self.projections = lim.projections
        self.ring = tower.ring
        self.top = lim.projections[upto - 1]
        self._moduli = [tower.level_modulus(n) for n in range(1, upto + 1)]

    def element(self, components) -> CoherentElement:
        """Canonicalize and validate a residue string against the tower's
        transition maps."""
        ring = self.ring
        comps = [ring.canonical(c) for c in components]
        if len(comps) != self.level:
            raise ValueError(
                f"expected {self.level} components, got {len(comps)}"
            )
        comps = [ring.rem(c, self._moduli[n]) for n, c in enumerate(comps)]
        for n in range(self.level - 1):
            if self._drop(n, comps[n + 1]) != comps[n]:
                raise ValueError(
                    f"incoherent element: level {n + 1} component does not "
                    f"match the transition of level {n + 2}"
                )
        return CoherentElement(self.level, tuple(comps))

    def from_top(self, residue) -> CoherentElement:
        """The coherent string with top component ``residue``, canonicalised
        and reduced modulo the top modulus, pushed down level by level
        through the transition maps.  Each lower component is the drop of
        the one above, so the string is coherent by construction and is
        not validated again."""
        ring = self.ring
        comps = [ring.rem(ring.canonical(residue), self._moduli[-1])]
        for n in range(self.level - 2, -1, -1):
            comps.append(self._drop(n, comps[-1]))
        return CoherentElement(self.level, tuple(comps[::-1]))

    def _drop(self, n: int, x) -> RingElement:
        """Image of a level n+2 residue under the transition to level n+1."""
        ring = self.ring
        return ring.rem(
            ring.mul(self.maps[n].matrix.entries[0][0], x), self._moduli[n]
        )

    def zero(self) -> CoherentElement:
        return self.from_scalar(self.ring.zero)

    def one(self) -> CoherentElement:
        return self.from_scalar(self.ring.one)

    def from_scalar(self, r) -> CoherentElement:
        """Image of a ring scalar under the canonical ring map."""
        ring = self.ring
        r = ring.canonical(r)
        return self.element([ring.rem(r, m) for m in self._moduli])

    def columns(self, elems: Sequence[CoherentElement]) -> Matrix:
        """Carrier coordinates of coherent elements, one column each, from
        one lift of all their strings (:func:`limit_preimage`).  Raises
        ``TowerError`` when one of them is outside the carrier."""
        for elem in elems:
            self._check(elem)
        rows = tuple(zip(*(elem.components for elem in elems)))
        strings = Matrix(self.ring, self.level, len(elems), rows)
        sol = limit_preimage(self, strings)
        if sol is None:
            raise TowerError("coherent element is outside the carrier")
        return sol

    def elements_from_columns(self, cols: Matrix) -> List[CoherentElement]:
        """Coherent residue strings of carrier coordinate columns, one per
        column, from one product with the inclusion."""
        amb = self.include @ cols
        return [self.element(col[: self.level]) for col in zip(*amb.entries)]

    def multiplication_morphisms(
        self, elems: Sequence[CoherentElement]
    ) -> List[ModuleMorphism]:
        """Multiplication by each coherent element, memoised per (limit,
        element); the elements not stored yet are restricted together."""
        for elem in elems:
            self._check(elem)
        return run_memo_each(_multiplications, self, items=elems)

    def _check(self, elem: CoherentElement) -> None:
        if not isinstance(elem, CoherentElement) or elem.level != self.level:
            raise ValueError("element from a different truncation level")


def truncated_limit(tower: AdicTower, upto: int) -> TruncatedLimit:
    """Limit of levels 1..upto, the chain entry a level below folded with
    level upto; the top projection must be an isomorphism."""
    if not 1 <= upto <= tower.depth:
        raise ValueError(f"truncation level {upto} outside 1..{tower.depth}")
    return run_memo(_compute_chain, _limit_step, tower, 1, upto)


def _limit_step(tower: AdicTower, upto: int, below) -> TruncatedLimit:
    if below is None:
        maps = []
        lim = inverse_limit([tower.level(1)], [])
    else:
        maps = below.maps + [build_transition(tower, below.level)]
        carrier, include = run_memo(
            _fold_level,
            below.carrier,
            below.include,
            tower.level(below.level),
            tower.level(upto),
            maps[-1],
        )
        lim = _assemble(carrier, include, list(tower.levels[:upto]))
    limit = TruncatedLimit(tower, upto, lim, maps)
    if not is_isomorphism(limit.top):
        raise TowerError(
            f"top projection of the truncated limit at level {upto} "
            "is not an isomorphism"
        )
    return limit


def limit_preimage(
    limit: Union[TruncatedLimit, InverseLimit], amb: Matrix
) -> Optional[Matrix]:
    """Carrier columns of a limit that its inclusion maps onto the ambient
    columns ``amb``, or None.

    The limit's ``include`` matrix is its ``projections`` stacked, and the
    caller must have certified the last, the top projection, an
    isomorphism.  The only candidate is then the lift of the top rows of
    ``amb`` through it.  It is kept when its image under the inclusion,
    one product, agrees with ``amb`` modulo each level's relations, block
    of rows by block of rows.
    """
    top = limit.projections[-1]
    rows = amb.rows
    cols = lift(top, amb.row_slice(rows - top.target.generators, rows))
    if cols is None:
        return None
    diff = (limit.include @ cols).sub(amb)
    start = 0
    for p in limit.projections:
        stop = start + p.target.generators
        if not vanishes(p.target, diff.row_slice(start, stop)):
            return None
        start = stop
    return cols


def _connect_all(
    src: TruncatedLimit, dst: TruncatedLimit, bigs: Sequence[Matrix]
) -> List[ModuleMorphism]:
    """Each ambient map of ``bigs``, from the source levels to the
    destination levels, restricted to a map between the limit carriers,
    in one batch: the images of the source inclusion side by side, one
    lift of all their columns through the top projection, one product
    with the inclusion and one agreement check per level
    (:func:`limit_preimage`), then ``is_well_defined`` per
    map.  Raises ``TowerError`` when a map does not carry the source
    carrier into the destination carrier."""
    mats = limit_preimage(dst, hstack([big @ src.include for big in bigs]))
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


def _multiplications(
    limit: TruncatedLimit, elems: List[CoherentElement]
) -> List[ModuleMorphism]:
    """Multiplication by each element: the diagonal ambient maps of their
    components, restricted together."""
    ring = limit.ring
    return _connect_all(
        limit, limit, [Matrix.diagonal(ring, elem.components) for elem in elems]
    )
