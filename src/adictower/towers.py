"""Adic filtration towers and their truncated inverse limits.

A tower over a Euclidean domain R and a principal ideal (g) is the chain of
cyclic level modules R/(g^n) for n = 1..depth, linked upward by
multiplication-by-g inclusions.  Downward transition maps between levels
are not written out directly: they are reconstructed through stabilized hom
modules into high levels and certified surjective, and the truncated
inverse limit is computed as an honest kernel inside the direct sum of the
levels.  That kernel is handed on in its normal form: the carrier is the
invariant-factor presentation (one generator for a cyclic limit), and the
inclusion and projections go through the Smith-certified ``from_standard``
isomorphism.  The limit carrier carries an exact ring structure
(componentwise multiplication of coherent residue strings).  Maps between
carriers (multiplications, the shift, truncations) are written on the
ambient sums with ``Matrix.identity``/``Matrix.diagonal`` and restricted to
the carriers by :func:`adictower.fpmod.morphisms.lift` through the
destination inclusion; carrier coordinates of a coherent element are a
lift through the inclusion too.

Transitions, stabilized homs, truncated limits and shifts are memoised per
tower (and per limit) for the length of a
:func:`adictower.memo.memo_scope`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

from .exactalg.matrices import Matrix, vstack
from .exactalg.rings import Ideal, Ring, RingElement, RingError
from .fpmod.modules import (
    FpModule,
    ModuleMorphism,
    cyclic_module,
    direct_sum,
    normalize,
    zero_module,
)
from .fpmod.functors import HomModule, hom_module, induced_hom
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
    zero_morphism,
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
        return self.ideal.generator_power(n)


def build_adic_tower(ring: Ring, generator, depth: int) -> AdicTower:
    """Construct and validate the tower for the ideal (generator).

    Rejects zero or unit generators and non-positive depth; checks that
    every inclusion is well defined and injective.
    """
    if depth < 1:
        raise RingError(f"depth must be at least 1, got {depth}")
    ideal = Ideal(ring, generator)
    g = ideal.generator
    levels = tuple(
        cyclic_module(ring, ideal.generator_power(n)) for n in range(1, depth + 1)
    )
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
    """Composite inclusion from level m up to level n (identity when equal)."""
    if not 1 <= m <= n <= tower.depth:
        raise ValueError(f"bad inclusion range {m}..{n}")
    result = identity_morphism(tower.level(m))
    for k in range(m, n):
        result = compose(tower.inclusion(k), result)
    return result


def reduction_morphism(tower: AdicTower, n: int) -> ModuleMorphism:
    """The directly-written residue map from level n+1 onto level n."""
    if not 1 <= n <= tower.depth - 1:
        raise ValueError(f"no reduction at level {n}")
    return ModuleMorphism(
        tower.level(n + 1), tower.level(n), Matrix.identity(tower.ring, 1)
    )


class ColimitHom(NamedTuple):
    stable_module: FpModule
    stable_hom: HomModule
    stable_index: int
    step_isomorphic: Tuple[bool, ...]


def hom_into_colimit(tower: AdicTower, m: int) -> ColimitHom:
    """Stabilized value of Hom(level m, level n) as n grows to depth.

    The connecting maps are postcomposition with the inclusions.  Returns
    the minimal index from which every later connecting map is an
    isomorphism along with that stable value; raises StabilizationError
    when the final step is still moving.
    """
    if not 1 <= m <= tower.depth:
        raise ValueError(f"level {m} outside 1..{tower.depth}")
    return run_memo(_compute_colimit, tower, m)


def _compute_colimit(tower: AdicTower, m: int) -> ColimitHom:
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
    stable_hom = hom_module(zm, tower.level(stable_index))
    return ColimitHom(stable_hom.module, stable_hom, stable_index, tuple(flags))


def canonical_hom_embedding(
    tower: AdicTower, m: int, s: int
) -> Tuple[HomModule, ModuleMorphism]:
    """The map level_m -> Hom(level_m, level_s) sending the generator to the
    composite inclusion; certified an isomorphism."""
    hom = hom_module(tower.level(m), tower.level(s))
    col = hom.encode(inclusion_composite(tower, m, s))
    can = ModuleMorphism(tower.level(m), hom.module, col)
    if not is_isomorphism(can):
        raise TowerError(
            f"canonical map into Hom(level {m}, level {s}) is not an isomorphism"
        )
    return hom, can


def build_transition(tower: AdicTower, n: int) -> ModuleMorphism:
    """Transition map from level n+1 down to level n.

    Reconstructed, not written down: conjugate precomposition-with-inclusion
    between the stabilized hom values Hom(level n+1, level s) and
    Hom(level n, level s) at s = n+1 through the canonical isomorphisms.
    Certified surjective.
    """
    if not 1 <= n <= tower.depth - 1:
        raise ValueError(f"no transition at level {n}")
    return run_memo(_compute_transition, tower, n)


def _compute_transition(tower: AdicTower, n: int) -> ModuleMorphism:
    s = n + 1
    _, can_top = canonical_hom_embedding(tower, n + 1, s)
    _, can_bot = canonical_hom_embedding(tower, n, s)
    restrict = induced_hom(tower.inclusion(n), tower.level(s), "pre")
    delta = compose(invert_isomorphism(can_bot), compose(restrict, can_top))
    if not is_well_defined(delta):
        raise TowerError(f"transition at level {n} is not well defined")
    if not is_surjective(delta):
        raise TowerError(f"transition at level {n} is not surjective")
    return delta


def build_transitions(tower: AdicTower) -> List[ModuleMorphism]:
    return [build_transition(tower, n) for n in range(1, tower.depth)]


def transition_composite(tower: AdicTower, j: int, i: int) -> ModuleMorphism:
    """Composite transition from level i down to level j (identity at j = i)."""
    if not 1 <= j <= i <= tower.depth:
        raise ValueError(f"bad transition range {j}..{i}")
    result = identity_morphism(tower.level(i))
    for n in range(i - 1, j - 1, -1):
        result = compose(build_transition(tower, n), result)
    return result


ML_HOLDS = "holds"
ML_HOLDS_BY_SURJECTIVITY = "holds-by-surjectivity"
ML_NOT_STABILIZED = "not-stabilized-within-horizon"


class MittagLefflerCheck(NamedTuple):
    verdict: str
    surjective_maps: Tuple[bool, ...]
    plateau_starts: Dict[int, int]


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
        if not f.source.same_presentation(modules[k + 1]) or not f.target.same_presentation(
            modules[k]
        ):
            raise ValueError(f"map {k} does not match its modules")
    surjective = tuple(is_surjective(f) for f in maps)
    if all(surjective):
        return MittagLefflerCheck(ML_HOLDS_BY_SURJECTIVITY, surjective, {})
    plateau: Dict[int, int] = {}
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
        plateau[i] = start
        if start == window:
            verdict = ML_NOT_STABILIZED
    return MittagLefflerCheck(verdict, surjective, plateau)


class InverseLimit(NamedTuple):
    carrier: FpModule
    include: ModuleMorphism
    projections: List[ModuleMorphism]


def inverse_limit(modules: List[FpModule], maps: List[ModuleMorphism]) -> InverseLimit:
    """Limit of a finite inverse system as a kernel in the direct sum.

    The coherence map sends a tuple (x_1, ..., x_N) to the differences
    x_n - maps[n](x_{n+1}), one block of rows ``projections[n] -
    maps[n] @ projections[n+1]`` per level below the top; its kernel, with
    the saturated presentation, is the limit.  The kernel carrier is
    handed on in normal form: the carrier is ``normalize(kernel).standard``
    and the inclusion is the kernel inclusion composed with the certified
    isomorphism ``from_standard``, so a cyclic limit has one generator
    however many levels it spans.  The level projections are restrictions
    of the sum projections.
    """
    if not modules:
        raise ValueError("inverse limit of an empty system")
    if len(maps) != len(modules) - 1:
        raise ValueError("need exactly one map between consecutive modules")
    ring = modules[0].ring
    summed, injections, projections = direct_sum(modules)
    if len(modules) == 1:
        coherence = zero_morphism(summed, zero_module(ring))
    else:
        lower = direct_sum(modules[:-1])[0]
        blocks = [
            projections[n].matrix.sub(f.matrix @ projections[n + 1].matrix)
            for n, f in enumerate(maps)
        ]
        coherence = ModuleMorphism(summed, lower, vstack(blocks))
    kernel_carrier, kernel_include = kernel(coherence)
    from_standard = normalize(kernel_carrier).from_standard
    include = ModuleMorphism(
        from_standard.source, summed, kernel_include.matrix @ from_standard.matrix
    )
    level_projections = [compose(p, include) for p in projections]
    return InverseLimit(include.source, include, level_projections)


@dataclass(frozen=True)
class CoherentElement:
    """Residue string (x_1, ..., x_N), canonical at each level."""

    level: int
    components: Tuple[RingElement, ...]


class TruncatedLimit:
    """Inverse limit of the first N tower levels, with its ring structure.

    ``maps[k]`` is the transition from level k+2 down to level k+1, as
    passed to :func:`inverse_limit`.
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

    def moduli(self) -> List[RingElement]:
        return list(self._moduli)

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
            dropped = ring.rem(
                ring.mul(self.maps[n].matrix.entries[0][0], comps[n + 1]),
                self._moduli[n],
            )
            if dropped != comps[n]:
                raise ValueError(
                    f"incoherent element: level {n + 1} component does not "
                    f"match the transition of level {n + 2}"
                )
        return CoherentElement(self.level, tuple(comps))

    def zero(self) -> CoherentElement:
        return self.from_scalar(self.ring.zero)

    def one(self) -> CoherentElement:
        return self.from_scalar(self.ring.one)

    def from_scalar(self, r) -> CoherentElement:
        """Image of a ring scalar under the canonical ring map."""
        ring = self.ring
        r = ring.canonical(r)
        return self.element([ring.rem(r, m) for m in self._moduli])

    def multiply(self, a: CoherentElement, b: CoherentElement) -> CoherentElement:
        ring = self.ring
        self._check(a)
        self._check(b)
        return self.element(
            [
                ring.rem(ring.mul(x, y), self._moduli[n])
                for n, (x, y) in enumerate(zip(a.components, b.components))
            ]
        )

    def add(self, a: CoherentElement, b: CoherentElement) -> CoherentElement:
        ring = self.ring
        self._check(a)
        self._check(b)
        return self.element(
            [ring.add(x, y) for x, y in zip(a.components, b.components)]
        )

    def column(self, elem: CoherentElement) -> Matrix:
        """Carrier coordinates of a coherent element."""
        self._check(elem)
        sol = lift(self.include, Matrix.column(self.ring, list(elem.components)))
        if sol is None:
            raise TowerError("coherent element is outside the carrier")
        return sol

    def element_from_column(self, col: Matrix) -> CoherentElement:
        """Coherent residue string of a carrier coordinate column."""
        amb = self.include.matrix @ col
        return self.element(
            [amb.entries[n][0] for n in range(self.level)]
        )

    def multiplication_morphism(self, elem: CoherentElement) -> ModuleMorphism:
        """Multiplication by a fixed coherent element as a carrier endomorphism."""
        self._check(elem)
        return connect_carriers(
            self, self, Matrix.diagonal(self.ring, elem.components)
        )

    def _check(self, elem: CoherentElement) -> None:
        if not isinstance(elem, CoherentElement) or elem.level != self.level:
            raise ValueError("element from a different truncation level")


def truncated_limit(tower: AdicTower, upto: int) -> TruncatedLimit:
    """Limit of levels 1..upto; the top projection must be an isomorphism."""
    if not 1 <= upto <= tower.depth:
        raise ValueError(f"truncation level {upto} outside 1..{tower.depth}")
    return run_memo(_compute_limit, tower, upto)


def _compute_limit(tower: AdicTower, upto: int) -> TruncatedLimit:
    modules = [tower.level(n) for n in range(1, upto + 1)]
    maps = [build_transition(tower, n) for n in range(1, upto)]
    lim = inverse_limit(modules, maps)
    limit = TruncatedLimit(tower, upto, lim, maps)
    if not is_isomorphism(limit.top):
        raise TowerError(
            f"top projection of the truncated limit at level {upto} "
            "is not an isomorphism"
        )
    return limit


def connect_carriers(
    src: TruncatedLimit, dst: TruncatedLimit, big: Matrix
) -> ModuleMorphism:
    """Restrict an ambient-level map to a map between limit carriers.

    ``big`` maps the source ambient sum to the destination ambient sum and
    must carry the source carrier into the destination carrier; the
    restriction is its lift through the destination inclusion.
    """
    mat = lift(dst.include, big @ src.include.matrix)
    if mat is None:
        raise TowerError("ambient map does not preserve the limit carriers")
    out = ModuleMorphism(src.carrier, dst.carrier, mat)
    if not is_well_defined(out):
        raise TowerError("restricted carrier map is not well defined")
    return out


def shift_endomorphism(limit: TruncatedLimit) -> ModuleMorphism:
    """The weighted shift on the truncated limit.

    Sends a coherent string (x_1, ..., x_N) to (0, mu(x_1), ..., mu(x_{N-1})),
    dropping the top component and pushing every other one up a level
    through the inclusion.
    """
    if limit.level < 2:
        raise ValueError("shift endomorphism needs at least two levels")
    return run_memo(_compute_shift, limit)


def _raise_levels(src: TruncatedLimit, rows: int) -> Matrix:
    """Ambient matrix sending component j of ``src`` through mu to
    component j+1, cut to the first ``rows`` components."""
    ring = src.ring
    pushed = Matrix.identity(ring, src.level).scale(src.tower.ideal.generator)
    return vstack([Matrix.zeros(ring, 1, src.level), pushed]).row_slice(0, rows)


def _compute_shift(limit: TruncatedLimit) -> ModuleMorphism:
    return connect_carriers(limit, limit, _raise_levels(limit, limit.level))


def truncation_morphism(src: TruncatedLimit, dst: TruncatedLimit) -> ModuleMorphism:
    """Forget the top components: limit at level N -> limit at level M < N."""
    if src.tower is not dst.tower or dst.level >= src.level:
        raise ValueError("truncation goes from a deeper limit of the same tower")
    big = Matrix.identity(src.ring, src.level).row_slice(0, dst.level)
    return connect_carriers(src, dst, big)


def shift_embedding(src: TruncatedLimit, dst: TruncatedLimit) -> ModuleMorphism:
    """Embed the limit at level N-1 into the limit at level N as the image
    of the shift: (x_1, ..., x_{N-1}) -> (0, mu(x_1), ..., mu(x_{N-1}))."""
    if src.tower is not dst.tower or dst.level != src.level + 1:
        raise ValueError("shift embedding raises the level by exactly one")
    return connect_carriers(src, dst, _raise_levels(src, dst.level))
