"""Adic filtration towers and their truncated inverse limits.

A tower over a Euclidean domain R and a principal ideal (g) is the chain of
cyclic level modules R/(g^n) for n = 1..depth, linked upward by
multiplication-by-g inclusions.  The downward transition from level n+1
to level n is the reduction, the identity on the generator; it exists once
the canonical maps of the level pairs (n+1, n+1) and (n, n+1) are
certified, which makes the modulus of level n divide the one above (see
:func:`build_transition`).  The truncated inverse limit of levels 1..n is
level n, whatever the transitions are: the index chain has the top level
as an initial object, and the projection to each level is the composite
transition, a reduction.  A truncated limit builds no inclusion matrix,
and the direct sum of the levels is never built.

An element of the limit is fixed by its top component, so it is kept as
that residue x modulo a_n, which is also its carrier coordinate; its
component at level k is x modulo a_k, read where it is used.  Since
End(R/(a)) is R/(a), multiplication by x is the 1x1 map by x.  No system
is solved and no ambient map is built.

Transitions, composite inclusions, stabilized homs, truncated limits and
multiplication maps are memoised per tower (and per limit and residue)
for the length of a :func:`adictower.memo.memo_scope`.  Composite
inclusions and truncated limits are entries of a chain
(:func:`_compute_chain`), one stored list per step, tower and bottom
level, each entry built by one step from the entry a level shorter: the
limit at level n is built once the transition from level n is.
"""

from __future__ import annotations

from functools import reduce
from typing import List, NamedTuple, Sequence, Tuple

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
        """The modulus a of level n = R/(a), g^n on a built tower: the gcd
        of the level's relations, read as is when there is one."""
        return reduce(self.ring.gcd, self.level(n).relations.entries[0])


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


class TruncatedLimit:
    """Inverse limit of the first N tower levels, with its ring structure.

    The carrier is level N = R/(a_N).  Each transition is the reduction
    (:func:`build_transition`), so an element of the limit is its top
    residue x modulo ``modulus`` = a_N, which is also its carrier
    coordinate, and its level-k component is x modulo a_k.  End(R/(a_N))
    is R/(a_N) (Lang, *Algebra*, III §7), so multiplication by x is the 1x1
    map by x.
    """

    def __init__(self, tower: AdicTower, upto: int):
        self.tower = tower
        self.level = upto
        self.ring = tower.ring
        self.carrier = tower.levels[upto - 1]
        self.modulus = tower.level_modulus(upto)

    def multiplication_morphisms(self, tops: Sequence) -> List[ModuleMorphism]:
        """Multiplication by each element, given by its top residue: the
        1x1 map by it, memoised per (limit, residue)."""
        return [run_memo(_multiplication, self, x) for x in tops]


def truncated_limit(tower: AdicTower, upto: int) -> TruncatedLimit:
    """Limit of levels 1..upto: level upto, built from the chain entry a
    level below once the transition from level upto is built and
    certified (see :func:`inverse_limit`)."""
    if not 1 <= upto <= tower.depth:
        raise ValueError(f"truncation level {upto} outside 1..{tower.depth}")
    return _compute_chain(_limit_step, tower, 1, upto)


def _limit_step(tower: AdicTower, upto: int, below) -> TruncatedLimit:
    if below is not None:
        build_transition(tower, below.level)
    return TruncatedLimit(tower, upto)


def _multiplication(limit: TruncatedLimit, top) -> ModuleMorphism:
    mult = ModuleMorphism(
        limit.carrier, limit.carrier, Matrix(limit.ring, 1, 1, ((top,),))
    )
    if not is_well_defined(mult):
        raise TowerError("restricted carrier map is not well defined")
    return mult
