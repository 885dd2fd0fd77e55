"""Operations on morphisms of finitely presented modules.

Everything here reduces to exact linear algebra against presentation
matrices: well-definedness and equality are solvability questions, and
kernel, preimage and image are read off the one block
``[f.matrix | f.target.relations]``.  :func:`kernel_columns` takes its
kernel basis and :func:`lift` solves it against a right-hand side, so
inverses, containment of submodules and restrictions to limit carriers
are all lifts.  Cokernels come from augmented relations.  Predicates
return bools; :func:`find_isomorphism` and :func:`invert_isomorphism`
return the map itself because their callers compose with it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from ..exactalg.matrices import (
    Matrix,
    hstack,
    kernel_basis,
    solve_matrix,
)
from .modules import (
    FpModule,
    ModuleMorphism,
    free_module,
    is_zero_module,
    normalize,
)


def identity_morphism(module: FpModule) -> ModuleMorphism:
    return ModuleMorphism(module, module, Matrix.identity(module.ring, module.generators))


def zero_morphism(source: FpModule, target: FpModule) -> ModuleMorphism:
    return ModuleMorphism(
        source, target, Matrix.zeros(source.ring, target.generators, source.generators)
    )


def is_well_defined(f: ModuleMorphism) -> bool:
    """True when f sends the source relations into the target relations."""
    images = f.matrix @ f.source.relations
    if images.cols == 0 or images.is_zero():
        return True
    return solve_matrix(f.target.relations, images) is not None


def compose(second: ModuleMorphism, first: ModuleMorphism) -> ModuleMorphism:
    if not second.source.same_presentation(first.target):
        raise ValueError("composition endpoint mismatch")
    return ModuleMorphism(first.source, second.target, second.matrix @ first.matrix)


def equal_morphisms(f: ModuleMorphism, g: ModuleMorphism) -> bool:
    """Equality as maps, i.e. the difference lands in the target relations."""
    if not f.source.same_presentation(g.source) or not f.target.same_presentation(
        g.target
    ):
        raise ValueError("comparing morphisms with different endpoints")
    diff = f.matrix.sub(g.matrix)
    if diff.is_zero():
        return True
    return solve_matrix(f.target.relations, diff) is not None


def is_zero_morphism(f: ModuleMorphism) -> bool:
    return equal_morphisms(f, zero_morphism(f.source, f.target))


class Submodule(NamedTuple):
    module: FpModule
    inclusion: ModuleMorphism


def _spanning_map(ambient: FpModule, columns: Matrix) -> ModuleMorphism:
    """The map from a free module onto the span of the columns."""
    if columns.rows != ambient.generators:
        raise ValueError("submodule generators have wrong length")
    return ModuleMorphism(free_module(ambient.ring, columns.cols), ambient, columns)


def submodule(ambient: FpModule, columns: Matrix) -> Submodule:
    """Submodule generated by the given columns of the ambient module.

    The presentation is saturated: its relations are the kernel of the
    spanning map, the combinations of the columns that land in the ambient
    relations.
    """
    rel = kernel_columns(_spanning_map(ambient, columns))
    module = FpModule(ambient.ring, columns.cols, rel)
    return Submodule(module, ModuleMorphism(module, ambient, columns))


def kernel_columns(f: ModuleMorphism) -> Matrix:
    """Source columns generating the kernel of f."""
    basis = kernel_basis(hstack([f.matrix, f.target.relations]))
    return basis.row_slice(0, f.source.generators)


def lift(f: ModuleMorphism, rhs: Matrix) -> Optional[Matrix]:
    """Source columns that f maps onto the columns of ``rhs``, or None.

    Solves ``[f.matrix | f.target.relations] X = rhs`` and keeps the top
    ``f.source.generators`` rows of X: a preimage up to the target
    relations.
    """
    sol = solve_matrix(hstack([f.matrix, f.target.relations]), rhs)
    if sol is None:
        return None
    return sol.row_slice(0, f.source.generators)


def kernel(f: ModuleMorphism) -> Submodule:
    """Kernel as a saturated submodule of the source."""
    return submodule(f.source, kernel_columns(f))


def cokernel(f: ModuleMorphism) -> Tuple[FpModule, ModuleMorphism]:
    """Target modulo the image, with the projection."""
    rel = hstack([f.target.relations, f.matrix])
    quot = FpModule(f.ring, f.target.generators, rel)
    proj = ModuleMorphism(
        f.target, quot, Matrix.identity(f.ring, f.target.generators)
    )
    return quot, proj


def image(f: ModuleMorphism) -> Submodule:
    """Image of f as a saturated submodule of the target."""
    return submodule(f.target, f.matrix)


def is_injective(f: ModuleMorphism) -> bool:
    return is_zero_module(kernel(f).module)


def is_surjective(f: ModuleMorphism) -> bool:
    quot, _ = cokernel(f)
    return is_zero_module(quot)


def is_isomorphism(f: ModuleMorphism) -> bool:
    return is_well_defined(f) and is_injective(f) and is_surjective(f)


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


def submodule_contains(ambient: FpModule, big: Matrix, small: Matrix) -> bool:
    """True when every column of ``small`` lies in the span of ``big`` plus
    the ambient relations."""
    return lift(_spanning_map(ambient, big), small) is not None


def submodules_equal(ambient: FpModule, a: Matrix, b: Matrix) -> bool:
    return submodule_contains(ambient, a, b) and submodule_contains(ambient, b, a)


def find_isomorphism(source: FpModule, target: FpModule) -> Optional[ModuleMorphism]:
    """An explicit isomorphism between the modules, or None.

    Both normal forms must agree (same invariant factors and rank); the map
    is assembled through the standard forms.
    """
    if source.ring != target.ring:
        return None
    ns, nt = normalize(source), normalize(target)
    if ns.factors != nt.factors or ns.rank != nt.rank:
        return None
    mat = nt.from_standard.matrix @ ns.to_standard.matrix
    return ModuleMorphism(source, target, mat)
