"""Operations on morphisms of finitely presented modules.

Everything here reduces to exact linear algebra against presentation
matrices.  :func:`vanishes` is the one membership test: well-definedness
asks whether columns are zero in the target, and containment of
submodules whether columns are zero in the quotient by the bigger one.
It reads the module's normal form, the one record of a module's Smith
data: each row of ``to_standard`` times the columns must be divisible by
its invariant factor, or zero on the free part.  A kernel is read off
the one block ``[f.matrix | f.target.relations]``: :func:`kernel_columns`
takes its kernel basis, the only caller of the full Smith form, with Q.
No map here is inverted: carrier coordinates and multiplications on a
limit carrier are top components, and the transitions of a tower are the
reductions.  A submodule is its inclusion: :func:`kernel` returns the
inclusion of the kernel, whose source carries the kernel's presentation,
and a quotient is a :func:`cokernel`, built from augmented relations.
The program calls neither, nor :func:`find_isomorphism`: they serve the
oracles of the tests and the spans of ``bench/tracer.py``, and the
package does not re-export them.
Injectivity of a map between finite modules is decided by counting,
|A|.|coker f| = |B|, and surjectivity by a zero cokernel; a map with a
free part at either end is injective when its kernel columns vanish in
the source.

Orders and zero tests read the invariant factors and the rank of the
same normal forms.  Predicates return bools; :func:`find_isomorphism`
returns the map itself.

The answers of :func:`is_well_defined`, :func:`is_injective` and
:func:`is_surjective` (and so of :func:`is_isomorphism`) are memoised by
the map for the length of a :func:`adictower.memo.memo_scope` (by its
matrix and target for surjectivity).  Maps and modules compare by value,
so a map asked about again costs one lookup.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..exactalg.matrices import (
    Matrix,
    hstack,
    kernel_basis,
)
from ..memo import run_memo
from .modules import (
    FpModule,
    ModuleMorphism,
    element_keys,
    free_module,
    is_zero_module,
    module_order,
    normalize,
)


def identity_morphism(module: FpModule) -> ModuleMorphism:
    return ModuleMorphism(module, module, Matrix.identity(module.ring, module.generators))


def vanishes(module: FpModule, columns: Matrix) -> bool:
    """True when every column is zero in ``module``, i.e. lies in the span
    of its relation columns.

    Read off the normal form: every canonical coordinate of the columns
    (:func:`adictower.fpmod.modules.element_keys`) is zero.  No system is
    solved.
    """
    if columns.is_zero():
        return True
    zero = module.ring.zero
    return all(v == zero for key in element_keys(module, columns) for v in key)


def is_well_defined(f: ModuleMorphism) -> bool:
    """True when f sends the source relations into the target relations."""
    return run_memo(_compute_well_defined, f)


def _compute_well_defined(f: ModuleMorphism) -> bool:
    return vanishes(f.target, f.matrix @ f.source.relations)


def compose(second: ModuleMorphism, first: ModuleMorphism) -> ModuleMorphism:
    if second.source != first.target:
        raise ValueError("composition endpoint mismatch")
    return ModuleMorphism(first.source, second.target, second.matrix @ first.matrix)


def _spanning_map(ambient: FpModule, columns: Matrix) -> ModuleMorphism:
    """The map from a free module onto the span of the columns."""
    if columns.rows != ambient.generators:
        raise ValueError("submodule generators have wrong length")
    return ModuleMorphism(free_module(ambient.ring, columns.cols), ambient, columns)


def kernel_columns(f: ModuleMorphism) -> Matrix:
    """Source columns generating the kernel of f."""
    basis = kernel_basis(hstack([f.matrix, f.target.relations]))
    return basis.row_slice(0, f.source.generators)


def kernel(f: ModuleMorphism) -> ModuleMorphism:
    """Inclusion of the kernel into the source.

    Its source presents the kernel on the kernel columns, saturated: the
    relations are the combinations of those columns that land in the
    source relations.
    """
    columns = kernel_columns(f)
    relations = kernel_columns(_spanning_map(f.source, columns))
    return ModuleMorphism(FpModule(relations), f.source, columns)


def _cokernel_module(matrix: Matrix, target: FpModule) -> FpModule:
    """The target modulo the image, without the projection."""
    return FpModule(hstack([target.relations, matrix]))


def cokernel(f: ModuleMorphism) -> Tuple[FpModule, ModuleMorphism]:
    """Target modulo the image, with the projection."""
    quot = _cokernel_module(f.matrix, f.target)
    proj = ModuleMorphism(
        f.target, quot, Matrix.identity(f.ring, f.target.generators)
    )
    return quot, proj


def is_injective(f: ModuleMorphism) -> bool:
    """True when f has zero kernel; f must be well defined.

    For finite A and B, a well-defined f: A -> B is injective exactly when
    |A|.|coker f| = |B| (|A| = |ker f|.|im f| and |B| = |im f|.|coker f|).
    A free part at either end asks whether the kernel columns vanish in
    the source.
    """
    return run_memo(_compute_injective, f)


def _compute_injective(f: ModuleMorphism) -> bool:
    source_order = module_order(f.source)
    target_order = module_order(f.target)
    if source_order is None or target_order is None:
        return vanishes(f.source, kernel_columns(f))
    quot = _cokernel_module(f.matrix, f.target)
    return source_order * module_order(quot) == target_order


def is_surjective(f: ModuleMorphism) -> bool:
    """True when the image is the whole target; keyed on the matrix and
    the target alone."""
    return run_memo(_compute_surjective, f.matrix, f.target)


def _compute_surjective(matrix: Matrix, target: FpModule) -> bool:
    return is_zero_module(_cokernel_module(matrix, target))


def is_isomorphism(f: ModuleMorphism) -> bool:
    return is_well_defined(f) and is_injective(f) and is_surjective(f)


def submodule_contains(ambient: FpModule, big: Matrix, small: Matrix) -> bool:
    """True when every column of ``small`` lies in the span of ``big`` plus
    the ambient relations, i.e. vanishes in the ambient modulo ``big``."""
    return vanishes(_cokernel_module(big, ambient), small)


def submodules_equal(ambient: FpModule, a: Matrix, b: Matrix) -> bool:
    return submodule_contains(ambient, a, b) and submodule_contains(ambient, b, a)


def find_isomorphism(source: FpModule, target: FpModule) -> Optional[ModuleMorphism]:
    """An explicit isomorphism between the modules, or None.

    Both normal forms must agree (same invariant factors and rank); the map
    is assembled through the standard forms.
    """
    ns, nt = normalize(source), normalize(target)
    if ns.standard != nt.standard:
        return None
    mat = nt.from_standard @ ns.to_standard
    return ModuleMorphism(source, target, mat)
