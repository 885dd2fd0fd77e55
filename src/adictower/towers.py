"""Adic filtration towers and their truncated inverse limits.

A tower over a Euclidean domain R and a principal ideal (g) is the chain of
cyclic level modules R/(g^n) for n = 1..depth, linked upward by
multiplication-by-g inclusions.  The downward transition from level n+1
to level n is the reduction, the identity on the generator; it exists once
the canonical maps of the level pairs (n+1, n+1) and (n, n+1) are
certified, which makes the modulus of level n divide the one above (see
:func:`build_transition`).  The truncated inverse limit of levels 1..n is
level n, whatever the transitions are: the index chain has the top level
as an initial object.  Its inclusion matrix (each carrier generator's
components in the levels, stacked) holds the composite transitions from
level n down to each level, the identity at the top, and the level
projections are its blocks of rows; a truncated limit builds it only when
it is read.  The direct sum of the levels is never built.

The limit carrier carries an exact ring structure (componentwise
multiplication of coherent residue strings).  A coherent string is fixed
by its top component, so its carrier coordinate is that component, and
since End(R/(a)) is R/(a), multiplication by it is the 1x1 map by that
component.  Both are read off once the string is checked to be the image
of its top under the inclusion, one congruence per level; the string of a
carrier coordinate is pushed down from the top.  No system is solved and
no ambient map is built.

Transitions, composite inclusions, stabilized homs, truncated limits and
multiplication maps are memoised per tower (and per limit and top
component) for the length of a :func:`adictower.memo.memo_scope`.
Composite inclusions and truncated limits are entries of a chain
(:func:`_compute_chain`), one stored list per step, tower and bottom
level, each entry built by one step from the entry a level shorter: the
limit at level n is linked to the limit a level below through the
transition from level n.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .exactalg.matrices import Matrix, vstack
from .exactalg.rings import Ideal, Ring, RingElement, RingError
from .fpmod.modules import FpModule, ModuleMorphism, cyclic_module
from .fpmod.functors import hom_module, induced_hom
from .fpmod.morphisms import (
    compose,
    identity_morphism,
    is_injective,
    is_isomorphism,
    is_surjective,
    is_well_defined,
    submodules_equal,
)
from .memo import run_memo


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
    return _compute_chain(_inclusion_step, tower, m, n)


def _inclusion_step(tower: AdicTower, n: int, shorter) -> ModuleMorphism:
    if shorter is None:
        return identity_morphism(tower.level(n))
    return compose(tower.inclusion(n - 1), shorter)


def _compute_chain(step, tower: AdicTower, lo: int, hi: int):
    """Entry ``hi`` of the chain that ``step`` builds up from level ``lo``:
    ``step(tower, lo, None)`` at ``lo``, then ``step(tower, n, entry at
    n - 1)`` for each level n above it.

    The entries are one list, stored by :func:`_chain` under ``(step,
    tower, lo)``: a call looks the list up once and extends it in a loop up
    to ``hi``, so each entry is built once and nothing recurses.  A step
    that raises leaves the entries before it stored.  Outside a
    :func:`adictower.memo.memo_scope` the list is a fresh one.
    """
    chain = run_memo(_chain, step, tower, lo)
    for n in range(lo + len(chain), hi + 1):
        chain.append(step(tower, n, chain[-1] if chain else None))
    return chain[hi - lo]


def _chain(step, tower: AdicTower, lo: int) -> list:
    """The stored entries of a chain, empty until :func:`_compute_chain`
    extends it."""
    return []


def hom_into_colimit(tower: AdicTower, m: int) -> int:
    """Index from which Hom(level m, level n) is stable as n grows to depth.

    The connecting maps are postcomposition with the inclusions.  Returns
    the minimal index from which every later connecting map is an
    isomorphism; raises StabilizationError when the final step is still
    moving.

    When :func:`adjacent_pairs_pass` holds this is m.  Each level is then
    R/(a_k) with a_k dividing a_(k+1), and Hom(level m, level n) is
    R/(a_m), generated by the composite inclusion (m, n) (see
    :func:`adjacent_pairs_pass`).  Postcomposition with the inclusion of
    level n sends that generator to the composite (m, n+1), a generator of
    a module of the same order, so every step from m on is an isomorphism.
    Otherwise each step is built and tested.
    """
    if not 1 <= m <= tower.depth:
        raise ValueError(f"level {m} outside 1..{tower.depth}")
    if adjacent_pairs_pass(tower):
        return m
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
    module of ``hom_module(level_m, level_s)``.

    The hom encoder reads a map off the standard block of its source, so it
    encodes any matrix out of a zero level (a unit modulus); the composite
    inclusion is also tested to be a morphism.
    """
    return run_memo(_compute_canonical_embedding, tower, m, s)


def _compute_canonical_embedding(
    tower: AdicTower, m: int, s: int
) -> ModuleMorphism:
    hom = hom_module(tower.level(m), tower.level(s))
    composite = inclusion_composite(tower, m, s)
    try:
        col = hom.encode(composite)
    except ValueError:
        col = None
    if col is None or not is_well_defined(composite):
        raise TowerError(
            f"composite inclusion of level {m} into level {s} is not a morphism"
        )
    can = ModuleMorphism(tower.level(m), hom.module, col)
    if not is_isomorphism(can):
        raise TowerError(
            f"canonical map into Hom(level {m}, level {s}) is not an isomorphism"
        )
    return can


def adjacent_pairs_pass(tower: AdicTower) -> bool:
    """Every level has one generator, and the canonical maps of the level
    pairs (m, m) and (m, m+1) are certified for every m
    (:func:`canonical_hom_embedding` raises nothing).

    Over a PID, Hom(R/(a), R/(b)) is R/(gcd(a, b)) (Lang, *Algebra*, III
    §7).  So when this holds, level m is R/(a_m), a_m divides a_(m+1), and
    the inclusion of level m is c_m = u_m.a_(m+1)/a_m with u_m a unit
    modulo a_m.  Each u_k with k >= m is then a unit modulo a_m too, as
    a_m divides a_k, so the composite inclusion (m, n) is
    (a_n/a_m).(u_m...u_(n-1)), a generator of Hom(level m, level n) =
    R/(a_m): the canonical map of every pair (m, n) with m <= n is an
    isomorphism.  Condition 2, condition 3', the stabilized homs and
    ``quotient`` read their facts about the other pairs off this.  The
    transitions build the same maps, so the predicate adds no work to a
    run.
    """
    return run_memo(_compute_adjacent_pairs_pass, tower)


def _compute_adjacent_pairs_pass(tower: AdicTower) -> bool:
    if any(level.generators != 1 for level in tower.levels):
        return False
    try:
        for m in range(1, tower.depth + 1):
            canonical_hom_embedding(tower, m, m)
            if m < tower.depth:
                canonical_hom_embedding(tower, m, m + 1)
    except TowerError:
        return False
    return True


def build_transition(tower: AdicTower, n: int) -> ModuleMorphism:
    """Transition map from level n+1 down to level n: the reduction, which
    sends the generator to the generator.

    It exists once the canonical maps of the pairs (n+1, n+1) and (n, n+1)
    are certified (:func:`canonical_hom_embedding`, which raises
    ``TowerError`` otherwise, at the first of the two that fails).  Over a
    PID, Hom(R/(a), R/(b)) is R/(gcd(a, b)) (Lang, *Algebra*, III §7), so a
    certified map from level n = R/(a_n) onto Hom(level n, level n+1) makes
    a_n divide a_(n+1): the reduction R/(a_(n+1)) -> R/(a_n) is well
    defined, and onto because it keeps the generator.  It is also
    restriction along the inclusion conjugated through those two canonical
    maps: the canonical map of level n+1 sends the generator to the
    identity, restriction turns that into the inclusion, and the canonical
    map of level n sends the generator to the inclusion.
    """
    if not 1 <= n <= tower.depth - 1:
        raise ValueError(f"no transition at level {n}")
    return run_memo(_compute_transition, tower, n)


def _compute_transition(tower: AdicTower, n: int) -> ModuleMorphism:
    canonical_hom_embedding(tower, n + 1, n + 1)
    canonical_hom_embedding(tower, n, n + 1)
    return ModuleMorphism(
        tower.level(n + 1), tower.level(n), Matrix.identity(tower.ring, 1)
    )


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


class InverseLimit:
    """Limit of a finite inverse system: its top module, with ``include``,
    the inclusion matrix into the modules (column t holds the components of
    carrier generator t, one block of rows per module).  Its blocks of rows
    are the level projections; the last is the identity.
    """

    def __init__(self, modules: Sequence[FpModule], include: Matrix):
        self.modules = modules
        self.include = include
        self.carrier = modules[-1]


def inverse_limit(modules: List[FpModule], maps: List[ModuleMorphism]) -> InverseLimit:
    """Limit of a finite inverse system, ``maps[k]`` running from
    ``modules[k+1]`` to ``modules[k]``: the top module.

    The index chain has the top as an initial object, so whatever the maps
    are, the limit is the top module with the composite maps as projections
    (Mac Lane, *Categories for the Working Mathematician*, V §1).  The
    inclusion is built one level at a time: the limit of the first n+1
    modules stacks the inclusion of the first n after ``maps[n-1]`` above
    the identity.
    """
    if not modules:
        raise ValueError("inverse limit of an empty system")
    if len(maps) != len(modules) - 1:
        raise ValueError("need exactly one map between consecutive modules")
    include = Matrix.identity(modules[0].ring, modules[0].generators)
    for n, f in enumerate(maps):
        if f.source != modules[n + 1] or f.target != modules[n]:
            raise ValueError(f"map {n} does not match its modules")
        include = _raise_top(include, f)
    return InverseLimit(modules, include)


def _raise_top(include: Matrix, f: ModuleMorphism) -> Matrix:
    """The inclusion of a limit one module up, ``f`` running from the new
    top module to the old one: ``include`` after ``f``, above the
    identity."""
    return vstack([include @ f.matrix, Matrix.identity(f.ring, f.source.generators)])


class CoherentElement(NamedTuple):
    """Residue string (x_1, ..., x_N), canonical at each level."""

    level: int
    components: Tuple[RingElement, ...]


class TruncatedLimit(InverseLimit):
    """Inverse limit of the first N tower levels, with its ring structure.

    The carrier is level N.  Each transition is the reduction
    (:func:`build_transition`), so a residue drops to the level below by
    its modulus alone, and End(R/(a_N)) is R/(a_N) (Lang, *Algebra*, III
    §7): carrier coordinates and multiplication maps are top components,
    once each string is checked coherent (:meth:`_tops`), and the string of
    a carrier coordinate is pushed down from the top (:meth:`from_top`).
    ``include``, the composite transitions stacked, is built when read.
    """

    def __init__(
        self,
        tower: AdicTower,
        upto: int,
        below: Optional[TruncatedLimit] = None,
        transition: Optional[ModuleMorphism] = None,
    ):
        self.tower = tower
        self.level = upto
        self.ring = tower.ring
        self.carrier = tower.levels[upto - 1]
        self._below = below
        self._transition = transition

    @property
    def modules(self) -> Tuple[FpModule, ...]:
        return self.tower.levels[: self.level]

    @cached_property
    def include(self) -> Matrix:
        """The inclusion matrix, built on first read from the transitions
        stored down the chain: the bottom identity, then one
        :func:`_raise_top` per level, in a loop."""
        transitions = []
        lim = self
        while lim._below is not None:
            transitions.append(lim._transition)
            lim = lim._below
        include = Matrix.identity(self.ring, lim.carrier.generators)
        for t in reversed(transitions):
            include = _raise_top(include, t)
        return include

    @cached_property
    def _moduli(self) -> List[RingElement]:
        """The level moduli, read once a limit's elements are asked for."""
        return [self.tower.level_modulus(n) for n in range(1, self.level + 1)]

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
        """Image of a level n+2 residue under the transition to level n+1,
        the reduction."""
        return self.ring.rem(x, self._moduli[n])

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
        """Carrier coordinates of coherent elements, one column each: their
        top components (:meth:`_tops`).  Raises ``TowerError`` when one of
        them is outside the carrier."""
        return Matrix(self.ring, 1, len(elems), (tuple(self._tops(elems)),))

    def elements_from_columns(self, cols: Matrix) -> List[CoherentElement]:
        """Coherent residue strings of carrier coordinate columns, one per
        column, each pushed down from its top component."""
        return [self.from_top(x) for x in cols.entries[0]]

    def multiplication_morphisms(
        self, elems: Sequence[CoherentElement]
    ) -> List[ModuleMorphism]:
        """Multiplication by each coherent element: the 1x1 map by its top
        component (:meth:`_tops`), memoised per (limit, top component)."""
        return [run_memo(_multiplication, self, x) for x in self._tops(elems)]

    def _tops(self, elems: Sequence[CoherentElement]) -> List[RingElement]:
        """The top components of coherent elements, each string first
        checked to be the image of its top under the inclusion: x_k = x_N
        modulo the modulus of level k for every k < N, compared through
        the reduction.  Raises ``TowerError`` at the first level, and
        within it the first element, where that fails."""
        for elem in elems:
            self._check(elem)
        tops = [elem.components[-1] for elem in elems]
        for n in range(self.level - 1):
            for elem, top in zip(elems, tops):
                if self._drop(n, top) != self._drop(n, elem.components[n]):
                    raise TowerError("coherent element is outside the carrier")
        return tops

    def _check(self, elem: CoherentElement) -> None:
        if not isinstance(elem, CoherentElement) or elem.level != self.level:
            raise ValueError("element from a different truncation level")


def truncated_limit(tower: AdicTower, upto: int) -> TruncatedLimit:
    """Limit of levels 1..upto: level upto, linked to the chain entry a
    level below through the transition from level upto, which is built
    and certified here (see :func:`inverse_limit`)."""
    if not 1 <= upto <= tower.depth:
        raise ValueError(f"truncation level {upto} outside 1..{tower.depth}")
    return _compute_chain(_limit_step, tower, 1, upto)


def _limit_step(tower: AdicTower, upto: int, below) -> TruncatedLimit:
    if below is None:
        return TruncatedLimit(tower, upto)
    return TruncatedLimit(tower, upto, below, build_transition(tower, below.level))


def _multiplication(limit: TruncatedLimit, top) -> ModuleMorphism:
    mult = ModuleMorphism(
        limit.carrier, limit.carrier, Matrix(limit.ring, 1, 1, ((top,),))
    )
    if not is_well_defined(mult):
        raise TowerError("restricted carrier map is not well defined")
    return mult
