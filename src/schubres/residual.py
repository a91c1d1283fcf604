"""Residual intersection decompositions of an excess intersection class.

Setting: a codimension-d subvariety X of some ambient Y is pulled back to a
variety V of dimension k, meeting it in a degenerate locus W.  The class of
the limiting intersection, {c(N) * s(W,V)} in codimension d, distributes
over the pieces of W.  Three evaluators cover the shapes of W this package
needs:

* ``divisor_decompose``: W = D union R with D a divisor in V.  D enters
  through its divisor class, R through its Segre class; the adjunct terms
  carry binomial weights and powers of -D.

* ``symmetric_decompose``: W is dominated by two divisors on a blow-up of
  V; everything is evaluated upstairs and pushed forward, and the two
  components are treated symmetrically.

* ``regular_decompose``: W = Z1 union Z2 with both pieces regularly
  embedded with known normal bundles, meeting transversally along their
  intersection.  The adjunct of each piece is supported on the
  intersection and built from Segre classes of the two normal bundles;
  both adjuncts share one table of products s_x(N1) * s_y(N2).

All classes, Segre classes included, are carriers graded by codimension.
Each component is reported as a main term (the class the piece would
contribute if it were alone, weighted by its own Segre class) plus an
adjunct correction; components always sum to the total intersection class,
and the symmetric evaluator checks that against an independently computed,
unregrouped total.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bundles import BundleClass
from .chow import GrassContext, StructRing
from .chow import integrate as grass_integrate
from .errors import UnsupportedOperationError
from .symfunc import exact_int


@dataclass(frozen=True)
class IntersectionSetup:
    """Fixed data of one residual intersection problem.

    ``cN`` is the total Chern class of the pulled-back normal bundle (unit
    constant term required: the formulas feed it into truncated series),
    ``d`` its codimension, and ``ring`` an optional integration context (a
    ``GrassContext`` or a ``StructRing``) used to attach degrees.
    """

    cN: object
    d: int
    ring: object = None

    def __post_init__(self) -> None:
        if exact_int(self.d, "codimension d") < 1:
            raise ValueError(f"codimension d must be a positive integer, got {self.d}")
        if self.cN.constant_term != 1:
            raise ValueError(
                f"c(N) must have constant term 1, got {self.cN.constant_term}"
            )


@dataclass(frozen=True)
class DecompositionComponent:
    label: str
    main: object
    adjunct: object
    total: object


@dataclass(frozen=True)
class Decomposition:
    """Per-component split of the intersection class.

    ``degrees`` aligns with ``components`` as (main, adjunct, total)
    triples and is present when the setup carried an integration ring.
    ``ambient_total`` is the full intersection class the components sum to.
    """

    components: tuple[DecompositionComponent, ...]
    ambient_total: object
    degrees: tuple[tuple[int, int, int], ...] | None = None
    ambient_degree: int | None = None

    @property
    def conserved(self) -> bool:
        total = None
        for component in self.components:
            total = component.total if total is None else total + component.total
        return total == self.ambient_total


def _integrate(ring, value) -> int:
    if isinstance(ring, GrassContext):
        return grass_integrate(ring, value)
    if isinstance(ring, StructRing):
        return value.integrate()
    raise UnsupportedOperationError(f"cannot integrate over {ring!r}")


def _attach_degrees(setup: IntersectionSetup, components, ambient_total) -> Decomposition:
    components = tuple(components)
    degrees = None
    ambient_degree = None
    if setup.ring is not None:
        degrees = tuple(
            (
                _integrate(setup.ring, c.main),
                _integrate(setup.ring, c.adjunct),
                _integrate(setup.ring, c.total),
            )
            for c in components
        )
        ambient_degree = _integrate(setup.ring, ambient_total)
    return Decomposition(components, ambient_total, degrees, ambient_degree)


def main_term(setup: IntersectionSetup, sZ):
    """The codimension-d part of c(N) * s(Z,V): the one-piece answer."""
    return (setup.cN * sZ).degree_part(setup.d)


def disjoint_sum(setup: IntersectionSetup, segre_list) -> object:
    """Total class when the pieces of W are pairwise disjoint.

    ``segre_list`` holds the Segre class of each piece.  With no points in
    common there are no adjunct corrections; the contributions just add up.
    """
    total = setup.cN.zero_like()
    for sZ in segre_list:
        total = total + main_term(setup, sZ)
    return total


def divisor_decompose(
    setup: IntersectionSetup,
    sD,
    Dclass,
    sR,
    labels: tuple[str, str] = ("D", "R"),
) -> Decomposition:
    """Split the intersection class between a divisor D and its residual R.

    ``Dclass`` is the divisor class of D; ``sD`` and ``sR`` are the Segre
    classes of the two pieces.  The adjunct terms weight Chern classes of N
    against powers of -D and codimension components of s(R,V); every term
    of either adjunct vanishes when D and R share no geometry (sR has no
    low-codimension part), recovering the disjoint sum.
    """
    d = setup.d
    if Dclass.degree_part(1) != Dclass:
        raise ValueError("the divisor class must be homogeneous of codimension 1")
    main_d = main_term(setup, sD)
    main_r = main_term(setup, sR)
    adj_d = setup.cN.zero_like()
    adj_r = setup.cN.zero_like()
    for i in range(0, d - 1):
        ci = setup.cN.degree_part(i)
        if ci.is_zero:
            continue
        for j in range(1, d - i):
            weight = comb(d - 1 - i, j)
            s_j = sR.degree_part(j)
            if not s_j.is_zero:
                adj_d = adj_d + weight * (ci * s_j * (-Dclass) ** (d - i - j))
            s_far = sR.degree_part(d - i - j)
            if not s_far.is_zero:
                adj_r = adj_r + weight * (ci * (-Dclass) ** j * s_far)
    components = (
        DecompositionComponent(labels[0], main_d, adj_d, main_d + adj_d),
        DecompositionComponent(labels[1], main_r, adj_r, main_r + adj_r),
    )
    ambient = components[0].total + components[1].total
    return _attach_degrees(setup, components, ambient)


def symmetric_decompose(
    setup: IntersectionSetup,
    e1,
    e2,
    labels: tuple[str, str] = ("Z1", "Z2"),
) -> Decomposition:
    """Split the class between two divisors dominating W on a blow-up.

    ``setup.ring`` must be the blow-up ring, carrying a pushforward to the
    base; ``e1`` and ``e2`` are the divisor classes upstairs.  Main and
    adjunct terms are computed upstairs and pushed forward; the reported
    ambient total is the unregrouped alternating sum, so components summing
    to it is a genuine check of the binomial regrouping, not a tautology.
    """
    ring = setup.ring
    if not isinstance(ring, StructRing) or not ring.has_pushforward:
        raise UnsupportedOperationError(
            "symmetric_decompose needs a structure ring with a pushforward"
        )
    d = setup.d
    for e in (e1, e2):
        if e.degree_part(1) != e:
            raise ValueError("divisor classes must be homogeneous of codimension 1")

    def component(own, other, label: str) -> DecompositionComponent:
        main = ring.zero()
        adjunct = ring.zero()
        for i in range(0, d):
            ci = setup.cN.degree_part(i)
            if ci.is_zero:
                continue
            main = main + ci * (-own) ** (d - 1 - i) * own
            for j in range(1, d - i):
                weight = comb(d - 1 - i, j)
                adjunct = adjunct + weight * (
                    ci * (-other) ** j * (-own) ** (d - 1 - i - j) * own
                )
        main = main.pushforward()
        adjunct = adjunct.pushforward()
        return DecompositionComponent(label, main, adjunct, main + adjunct)

    components = (component(e1, e2, labels[0]), component(e2, e1, labels[1]))
    total_divisor = e1 + e2
    ambient = ring.zero()
    for i in range(0, d):
        ci = setup.cN.degree_part(i)
        if ci.is_zero:
            continue
        ambient = ambient + ci * (-total_divisor) ** (d - 1 - i) * total_divisor
    return _attach_degrees(setup, components, ambient.pushforward())


def regular_decompose(
    setup: IntersectionSetup,
    N1: BundleClass,
    N2: BundleClass,
    z1,
    z2,
    zint,
    labels: tuple[str, str] = ("Z1", "Z2"),
) -> Decomposition:
    """Split the class between two regularly embedded pieces Z1 and Z2.

    ``N1`` and ``N2`` are their normal bundles inside V, ``z1`` and ``z2``
    their classes, and ``zint`` the class of their (transversal)
    intersection.  The main term of each piece is the top Chern class of
    the excess bundle N - N_l on the piece; the adjunct is supported on
    the intersection.  Swapping the two pieces swaps the components.

    The products s_x(N1) * s_y(N2) with x + y <= d - r1 - r2 are formed
    once and shared by both adjuncts.  Each adjunct sums its weighted
    products per Chern degree i, multiplies that sum by c_i(N), and
    multiplies the total by ``zint`` once.
    """
    d = setup.d
    r1, r2 = N1.rank, N2.rank

    def main_for(N_l: BundleClass, z_l):
        # Only the codimension-e part of c(N) * s(N_l) is needed, so form
        # it directly as the sum of c_i(N) * s_{e-i}(N_l).
        excess_codim = d - N_l.rank
        excess = setup.cN.zero_like()
        for i in range(0, excess_codim + 1):
            ci = setup.cN.degree_part(i)
            if not ci.is_zero:
                excess = excess + ci * N_l.segre(excess_codim - i)
        return excess * z_l

    # The adjunct of Z_l sums comb(d-1-i, a + r_other) * c_i(N) *
    # s_a(N_other) * s_b(N_l) over i + a + b = d - r1 - r2.
    span = d - r1 - r2
    pairs = {
        (x, y): N1.segre(x) * N2.segre(y)
        for x in range(span + 1)
        for y in range(span + 1 - x)
    }

    def adjunct_for(r_o: int, pair_of):
        acc = setup.cN.zero_like()
        for i in range(0, span + 1):
            ci = setup.cN.degree_part(i)
            if ci.is_zero:
                continue
            inner = setup.cN.zero_like()
            for a in range(span - i + 1):
                inner = inner + comb(d - 1 - i, a + r_o) * pair_of(a, span - i - a)
            acc = acc + ci * inner
        return -(acc * zint)

    main1, main2 = main_for(N1, z1), main_for(N2, z2)
    # Z1's adjunct pairs s_a(N2) with s_b(N1); Z2's pairs s_a(N1) with s_b(N2).
    adj1 = adjunct_for(r2, lambda a, b: pairs[b, a])
    adj2 = adjunct_for(r1, lambda a, b: pairs[a, b])
    components = (
        DecompositionComponent(labels[0], main1, adj1, main1 + adj1),
        DecompositionComponent(labels[1], main2, adj2, main2 + adj2),
    )
    ambient = components[0].total + components[1].total
    return _attach_degrees(setup, components, ambient)
