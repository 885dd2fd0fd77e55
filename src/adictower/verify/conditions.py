"""Structural conditions on an adic tower.

Each check returns a report entry with a machine-readable witness.  The
numbering is stable across the report, the CLI and the tests:

1. the levels are finitely presented (by construction, recorded),
2. the level modules represent their own hom modules into higher levels
   through the canonical maps (the inclusion squares commute by
   naturality of the hom encoding, and are recorded),
3. restrictions along the inclusions surject on stabilized hom values
   (read off 1 and the levelwise variant, which certified each of those
   restrictions, or by the direct route alone when the levelwise variant
   fails),
3'. the levelwise surjectivity itself, along inclusions that are
   morphisms,
4. the bottom level is simple: prime generator, annihilator exactly the
   ideal (so the one-generator bottom level is R/(g)), and the ideal times
   each level matching the inclusion image one step down (by gcd),
5. tensoring a level with the bottom level collapses to the bottom level
   through the canonical multiplication map (checked as: each level
   modulo the ideal action is the bottom level, by gcd, which on
   one-generator levels implies the collapse).

Conditions 2, 3' and 3 are about pairs of levels.  When the adjacent
pairs (m, m+1) pass (:func:`adictower.towers.adjacent_pairs_pass`),
every other pair's fact follows over a PID, so these checks build only the
adjacent maps and record the pair counts; each docstring gives the
implication.  Otherwise every pair is checked in order, so a failing
tower's first witness is the first failing pair.
"""

from __future__ import annotations

from typing import Dict

from ..fpmod.functors import induced_hom
from ..fpmod.modules import annihilator_generator
from ..fpmod.morphisms import is_surjective, is_well_defined
from ..towers import (
    AdicTower,
    TowerError,
    adjacent_pairs_pass,
    certify_canonical_map,
    hom_into_colimit,
)
from .report import Entry, failed, passed


def check_condition_1(tower: AdicTower) -> Entry:
    ring = tower.ring
    moduli = [ring.format(tower.level_modulus(n)) for n in range(1, tower.depth + 1)]
    return passed(
        "presentation matrices supplied for every level (by construction)",
        levels=tower.depth,
        moduli=moduli,
    )


def check_condition_2(tower: AdicTower) -> Entry:
    """Levels represent hom modules into higher levels, and the chosen
    isomorphisms commute with both inclusion squares.

    Only the isomorphisms depend on the tower.  The levels are cyclic, so
    a square commutes when both ways round agree on the generator, and the
    canonical map of (m, n) sends it to the encoding of the composite
    inclusion of level m into level n.  Induced maps act on encodings as
    composition acts on maps.  Round the postcomposition square at (m, n)
    the generator goes to the inclusion of level n after the composite
    (m, n), which is how the chain builds the composite (m, n+1).  Round
    the restriction square it goes one way to the composite (m+1, n)
    after the inclusion of level m, and the other way (the residue map
    from level m+1 onto level m keeps the generator) to the composite
    (m, n): products of the same one-step inclusions.  So no square can
    fail once the canonical maps exist, and the squares are only counted.

    When the adjacent pairs pass, so does every pair (m, n) with m <= n
    (see :func:`adictower.towers.adjacent_pairs_pass`), and only the pairs
    are counted.
    """
    depth = tower.depth
    if not adjacent_pairs_pass(tower):
        for m in range(1, depth + 1):
            for n in range(m, depth + 1):
                try:
                    certify_canonical_map(tower, m, n)
                except TowerError as err:
                    return failed(f"levels ({m}, {n}): {err}")
    # one square of each family per pair m <= n < depth, recorded as
    # homzz and zml record what the certificates imply
    squares = depth * (depth - 1) // 2
    return passed(
        "canonical maps into the hom modules are isomorphisms and both "
        "square families commute",
        pairs=depth * (depth + 1) // 2,
        postcomposition_squares=squares,
        restriction_squares=squares,
    )


def check_condition_3_prime(tower: AdicTower) -> Entry:
    """Restriction along each inclusion, Hom(level m+1, level n) ->
    Hom(level m, level n) for m < n, is onto.

    When the adjacent pairs pass, each inclusion is a morphism and
    Hom(level k, level n) is generated by the composite inclusion (k, n)
    (see :func:`adictower.towers.adjacent_pairs_pass`).  Restriction sends
    the generator (m+1, n) to the composite (m, n), the generator one level
    down, so it is onto, and the restrictions are only counted.
    """
    depth = tower.depth
    if adjacent_pairs_pass(tower):
        return passed(
            "restriction along every inclusion is surjective at every level",
            restrictions=depth * (depth - 1) // 2,
        )
    checked = 0
    for m in range(1, tower.depth):
        # restriction along a matrix that is not a morphism is not a map
        if not is_well_defined(tower.inclusion(m)):
            return failed(f"inclusion at level {m} is not a morphism")
        for n in range(m + 1, tower.depth + 1):
            restrict = induced_hom(tower.inclusion(m), tower.level(n), "pre")
            if not is_surjective(restrict):
                return failed(
                    f"restriction Hom(level {m + 1}, level {n}) -> "
                    f"Hom(level {m}, level {n}) is not surjective"
                )
            checked += 1
    return passed(
        "restriction along every inclusion is surjective at every level",
        restrictions=checked,
    )


def check_condition_3(
    tower: AdicTower, cond_1: Entry, cond_3_prime: Entry
) -> Entry:
    """Surjectivity of restrictions on stabilized hom values.

    Established from conditions (1) and the levelwise variant, or else by
    the direct route: restriction along the inclusion of level m into
    Hom(-, level s), s the stabilized index max(hom_into_colimit(m+1),
    hom_into_colimit(m)).  That index is at least m+1, so when the
    levelwise variant passed it has certified each inclusion a morphism
    and each of these restrictions onto: the direct route agrees, and is
    recorded without being rebuilt.  The stabilized indices are computed
    either way, since a hom system still moving at the top level fails
    the condition.  When the adjacent pairs pass, each hom system is
    stable from its own level (:func:`adictower.towers.hom_into_colimit`).
    """
    via_ok = cond_1.status == "pass" and cond_3_prime.status == "pass"
    direct_detail = []
    try:
        if not via_ok:
            # the stabilized homs are built along the inclusions
            for m in range(1, tower.depth):
                if not is_well_defined(tower.inclusion(m)):
                    raise TowerError(f"inclusion at level {m} is not a morphism")
        for m in range(1, tower.depth):
            hi = hom_into_colimit(tower, m + 1)
            lo = hom_into_colimit(tower, m)
            s = max(hi, lo)
            ok = via_ok or is_surjective(
                induced_hom(tower.inclusion(m), tower.level(s), "pre")
            )
            direct_detail.append([m, s, ok])
    except TowerError as err:
        return failed(f"direct stabilized check unavailable: {err}")
    if via_ok:
        return passed(
            "restrictions surject on stabilized hom values",
            established_via="conditions (1) and (3')",
            direct_check="agrees",
            stabilized_pairs=direct_detail,
        )
    if all(ok for _, _, ok in direct_detail):
        return passed(
            "restrictions surject on stabilized hom values",
            established_via="the direct stabilized route",
            stabilized_pairs=direct_detail,
        )
    return failed(
        "restrictions do not surject on stabilized hom values",
        stabilized_pairs=direct_detail,
    )


def check_condition_4(tower: AdicTower) -> Entry:
    """Simplicity of the bottom level and the ideal-action identities, the
    latter read off the moduli by gcd: x generates (gcd(x, a))/(a) in
    R/(a), so g.(level m+1) is the image of c_m when gcd(g, a_(m+1)) =
    gcd(c_m, a_(m+1))."""
    ring = tower.ring
    g = tower.ideal.generator
    if not ring.is_prime_element(g):
        what = "prime" if ring.kind == "integers" else "irreducible"
        return failed(f"generator {ring.format(g)} is not {what}")
    # on its one generator, a bottom level annihilated by exactly (g) is
    # R/(g): 0 -> R --g--> R -> bottom -> 0 is exact
    ann = annihilator_generator(tower.level(1))
    if ann != g:
        return failed(
            f"annihilator of the bottom level is {ring.format(ann)}, "
            f"expected {ring.format(g)}"
        )
    for m in range(1, tower.depth):
        a = tower.level_modulus(m + 1)
        ((c,),) = tower.inclusion(m).matrix.entries
        if ring.gcd(g, a) != ring.gcd(c, a):
            return failed(
                f"ideal action on level {m + 1} does not match the image "
                f"of the level-{m} inclusion"
            )
    return passed(
        "bottom level is simple and the ideal action matches the inclusion "
        "images (reading: ideal times level m+1 equals the image of level m)",
        generator=ring.format(g),
        inclusion_images_checked=tower.depth - 1,
    )


def check_condition_5(tower: AdicTower) -> Entry:
    """Tensoring each level with the bottom level collapses to the bottom
    level via multiplication.

    Only "level m modulo the ideal action is isomorphic to the bottom
    level" is checked, read off the moduli by gcd.  Level m is R/(a_m) on
    one generator, so level m (x) bottom is R/(gcd(a_m, a_1)) and level m
    modulo g is R/(gcd(a_m, g)) (Lang, *Algebra*, III §7).  The test makes
    gcd(a_m, g) = a_1 up to a unit, so a_1 divides a_m and g, and the
    first is R/(a_1) too.  Multiplication x (x) y -> x.y sends the
    generator to the generator of level m modulo g: it is well defined, as
    a_1 kills that quotient, and an onto map between two copies of
    R/(a_1), so an isomorphism.
    """
    ring = tower.ring
    g = tower.ideal.generator
    bottom = tower.level_modulus(1)
    for m in range(1, tower.depth + 1):
        if not ring.associates(ring.gcd(tower.level_modulus(m), g), bottom):
            return failed(
                f"level {m} modulo the ideal action is not isomorphic to the "
                "bottom level"
            )
    return passed(
        "multiplication collapses level (x) bottom onto the bottom level at "
        "every level",
        levels=tower.depth,
    )


def check_conditions(tower: AdicTower) -> Dict[str, Entry]:
    cond_1 = check_condition_1(tower)
    cond_2 = check_condition_2(tower)
    cond_3_prime = check_condition_3_prime(tower)
    cond_3 = check_condition_3(tower, cond_1, cond_3_prime)
    cond_4 = check_condition_4(tower)
    cond_5 = check_condition_5(tower)
    return {
        "condition_1": cond_1,
        "condition_2": cond_2,
        "condition_3": cond_3,
        "condition_3_prime": cond_3_prime,
        "condition_4": cond_4,
        "condition_5": cond_5,
    }
