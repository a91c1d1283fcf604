"""Limiting linear subspaces in degenerations of hypersurfaces.

A degree-``d`` hypersurface in projective ``n``-space carries a scheme of
``r``-planes cut out, on the Grassmannian, by a section of ``Sym^d U*``.
When the hypersurface degenerates into a union of two pieces -- each a
hypersurface of some degree taken with some multiplicity -- the planes in
the limit distribute over the pieces.  Each piece receives a main class
(planes honestly contained in that piece) and an adjunct correction from
the locus shared with the other piece, and the total over both pieces
recovers the top Chern class of ``Sym^d U*``.
"""

from __future__ import annotations

from typing import Iterable

from .bundles import rank_sym, sym_ustar
from . import chow
from .chow import GrassContext, Partition
from .residual import Decomposition, DecompositionComponent, IntersectionSetup, regular_decompose
from .symfunc import GradedPoly, exact_int

__all__ = [
    "DegenerationSpec",
    "PieceReport",
    "LimitReport",
    "piece_label",
    "fano_family",
    "fano_degree",
    "decompose_degeneration",
    "enumerate_degenerations",
]

Piece = tuple[int, int]


def piece_label(degree: int, multiplicity: int) -> str:
    """Display name for a piece: ``X3`` for a plain cubic, ``X1^2`` for a
    doubled hyperplane."""
    if multiplicity == 1:
        return f"X{degree}"
    return f"X{degree}^{multiplicity}"


class DegenerationSpec:
    """A degeneration of a hypersurface into two weighted pieces.

    Each piece ``(k, e)`` is a degree-``k`` hypersurface with multiplicity
    ``e``; the total degree of the degenerate fibre is the weighted sum of
    the pieces.  Specs are immutable and compare and hash by their context
    and pieces.
    """

    __slots__ = ("context", "pieces")

    def __init__(self, context: GrassContext, pieces: tuple[Piece, Piece]) -> None:
        if not isinstance(context, GrassContext):
            raise TypeError("context must be a GrassContext")
        pieces = tuple(
            (exact_int(k, "piece degree"), exact_int(e, "piece multiplicity"))
            for k, e in pieces
        )
        if len(pieces) != 2:
            raise ValueError("exactly two pieces are supported")
        for k, e in pieces:
            if k < 1 or e < 1:
                raise ValueError(
                    f"piece degrees and multiplicities must be >= 1, got ({k}, {e})"
                )
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "pieces", pieces)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DegenerationSpec is immutable")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not DegenerationSpec:
            return NotImplemented
        return self.pieces == other.pieces and self.context == other.context

    def __hash__(self) -> int:
        return hash((self.context, self.pieces))

    def __repr__(self) -> str:
        return f"DegenerationSpec(context={self.context!r}, pieces={self.pieces!r})"

    def __reduce__(self):
        return DegenerationSpec, (self.context, self.pieces)

    @property
    def degree(self) -> int:
        """Total degree of the degenerate hypersurface."""
        return sum(k * e for k, e in self.pieces)

    @property
    def labels(self) -> tuple[str, str]:
        return tuple(piece_label(k, e) for k, e in self.pieces)

    def __str__(self) -> str:
        return " + ".join(self.labels)


class PieceReport:
    """Limit classes and (when defined) degrees attached to one piece."""

    __slots__ = (
        "label", "degree", "multiplicity", "main_class", "adjunct_class", "total_class",
        "main_degree", "adjunct_degree", "total_degree",
    )

    def __init__(
        self,
        label: str,
        degree: int,
        multiplicity: int,
        main_class: GradedPoly,
        adjunct_class: GradedPoly,
        total_class: GradedPoly,
        main_degree: int | None,
        adjunct_degree: int | None,
        total_degree: int | None,
    ) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "main_class", main_class)
        object.__setattr__(self, "adjunct_class", adjunct_class)
        object.__setattr__(self, "total_class", total_class)
        object.__setattr__(self, "main_degree", main_degree)
        object.__setattr__(self, "adjunct_degree", adjunct_degree)
        object.__setattr__(self, "total_degree", total_degree)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PieceReport is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"PieceReport({fields})"

    def __reduce__(self):
        return PieceReport, tuple(getattr(self, name) for name in self.__slots__)


class LimitReport:
    """Full account of a degeneration: per-piece reports plus the ambient
    total they must reproduce."""

    __slots__ = ("spec", "pieces", "ambient_class", "ambient_degree", "conserved")

    def __init__(
        self,
        spec: DegenerationSpec,
        pieces: tuple[PieceReport, PieceReport],
        ambient_class: GradedPoly,
        ambient_degree: int | None,
        conserved: bool,
    ) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "ambient_class", ambient_class)
        object.__setattr__(self, "ambient_degree", ambient_degree)
        object.__setattr__(self, "conserved", conserved)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LimitReport is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"LimitReport({fields})"

    def __reduce__(self):
        return LimitReport, tuple(getattr(self, name) for name in self.__slots__)


def _check_pairing(ctx: GrassContext, pairing, excess: int) -> Partition | None:
    """``pairing`` as a ``Partition``, refused unless it fits the box and its
    size is the family dimension ``max(excess, 0)``: none is dropped silently.
    Checked here, before any class is built."""
    if pairing is None:
        return None
    if not isinstance(pairing, Partition):
        pairing = Partition(tuple(pairing))
    size = max(excess, 0)
    if pairing.size != size:
        raise ValueError(f"pairing partition must have size {size}, got {pairing.size}")
    if not pairing.fits_in_box(ctx.k, ctx.m):
        raise ValueError(f"{pairing} does not fit the {ctx.k}x{ctx.m} box")
    return pairing


def _paired_degree(
    ctx: GrassContext, value: GradedPoly, excess: int, pairing: Partition | None
) -> int | None:
    """Degree of ``value``, paired with a checked ``pairing`` if one is
    given; ``None`` for an unpaired positive-dimensional family."""
    if pairing is None and excess > 0:
        return None
    # Looked up on ``chow`` at each call, so a rebinding of
    # ``chow.integrate`` is the one called.
    return chow.integrate(ctx, value, pairing)


def fano_family(ctx: GrassContext, d: int, pairing=None) -> tuple[GradedPoly, int, int | None]:
    """Class, dimension (zero when finite or empty) and count, as in
    ``fano_degree``, of the scheme of ``r``-planes on a general degree-``d``
    hypersurface, all from one lookup of ``Sym^d U*``.  An empty family,
    where the rank exceeds the dimension, is answered without one."""
    excess = ctx.dim - rank_sym(ctx.r, d)
    pairing = _check_pairing(ctx, pairing, excess)
    if excess < 0:
        return GradedPoly.zero(ctx.spec), 0, 0
    bundle = sym_ustar(ctx, d)
    cls = bundle.chern(bundle.rank)
    return cls, excess, _paired_degree(ctx, cls, excess, pairing)


def fano_degree(ctx: GrassContext, d: int, pairing=None) -> int | None:
    """Count of ``r``-planes on a general degree-``d`` hypersurface when
    the count is finite; otherwise the degree of the family paired against
    the given Schubert condition (``None`` if no pairing is supplied)."""
    return fano_family(ctx, d, pairing)[2]


def decompose_degeneration(spec: DegenerationSpec, pairing=None) -> LimitReport:
    """Split the limit class of plane schemes over the two pieces of a
    degeneration.

    Piece ``(k, e)`` contributes through the rescaled bundle obtained from
    ``Sym^k U*`` by multiplying its codimension-``i`` classes by ``e^i``;
    its top Chern class locates planes on that piece and the residual
    machinery supplies the adjunct correction along the common locus.

    When the expected family of planes is positive-dimensional the degree
    columns are ``None`` unless ``pairing`` names a Schubert condition of
    complementary size to cut the family down to points.  When it is empty
    (the rank of ``Sym^d U*`` exceeds the dimension), every class lives
    above the top degree, and the zero classes are returned without
    building any bundle.  A piece's total degree is the sum of its main
    and adjunct degrees, as its class is the sum of theirs.

    The ambient class and ``conserved`` are read from the decomposition:
    ``regular_decompose`` reports c_top(Sym^d U*) as its ambient total, and
    ``conserved`` says whether the two pieces sum to it.
    """
    ctx = spec.context
    excess = ctx.dim - rank_sym(ctx.r, spec.degree)
    pairing = _check_pairing(ctx, pairing, excess)
    if excess < 0:
        zero = GradedPoly.zero(ctx.spec)
        decomposition = Decomposition(
            tuple(DecompositionComponent(label, zero, zero) for label in spec.labels), zero
        )
    else:
        ambient_bundle = sym_ustar(ctx, spec.degree)
        setup = IntersectionSetup(cN=ambient_bundle.total_chern, d=ambient_bundle.rank)
        bundle1, bundle2 = (sym_ustar(ctx, k, e) for k, e in spec.pieces)
        top1, top2 = (bundle.chern(bundle.rank) for bundle in (bundle1, bundle2))
        decomposition = regular_decompose(setup, bundle1, bundle2, top1, top2, labels=spec.labels)
    ambient = decomposition.ambient_total

    reports = []
    for component, (k, e) in zip(decomposition.components, spec.pieces):
        main = _paired_degree(ctx, component.main, excess, pairing)
        adjunct = _paired_degree(ctx, component.adjunct, excess, pairing)
        reports.append(PieceReport(
            label=component.label,
            degree=k,
            multiplicity=e,
            main_class=component.main,
            adjunct_class=component.adjunct,
            total_class=component.total,
            main_degree=main,
            adjunct_degree=adjunct,
            total_degree=None if main is None else main + adjunct,
        ))
    return LimitReport(
        spec=spec,
        pieces=tuple(reports),
        ambient_class=ambient,
        ambient_degree=_paired_degree(ctx, ambient, excess, pairing),
        conserved=decomposition.conserved,
    )


def _piece_sort_key(piece: Piece) -> tuple[int, int, int]:
    k, e = piece
    return (-k * e, -e, k)


def enumerate_degenerations(d: int) -> list[tuple[Piece, Piece]]:
    """All unordered two-piece degenerations of total degree ``d``, each
    listed once with the heavier piece first."""
    if exact_int(d, "total degree") < 2:
        raise ValueError("need total degree >= 2 to split into two pieces")
    seen: set[tuple[Piece, Piece]] = set()
    for a in range(1, d):
        b = d - a
        for ka in _factor_pairs(a):
            for kb in _factor_pairs(b):
                pair = tuple(sorted((ka, kb), key=_piece_sort_key))
                seen.add(pair)  # type: ignore[arg-type]
    return sorted(seen, key=lambda pair: tuple(_piece_sort_key(p) for p in pair))


def _factor_pairs(total: int) -> Iterable[Piece]:
    """Factorings ``total == k * e`` into degree and multiplicity."""
    for k in range(1, total + 1):
        if total % k == 0:
            yield (k, total // k)
