"""Residual intersection decompositions of an excess intersection class.

Setting: a codimension-d subvariety X of some ambient Y is pulled back to a
variety V of dimension k, meeting it in a degenerate locus W.  The class of
the limiting intersection, {c(N) * s(W,V)} in codimension d, distributes
over the pieces of W.  Three evaluators cover the shapes of W this package
needs:

* ``divisor_decompose``: W = D union R with D a divisor in V.  D enters
  through its divisor class, R through its Segre class; the adjunct terms
  carry binomial weights and powers of -D.

* ``symmetric_decompose``: W is dominated by two divisors E1 and E2 on a
  blow-up of V.  It is ``divisor_decompose`` applied upstairs, with D = E1
  and R = E2, each entering through its Segre class s(E) = E * (1 + E)^-1;
  every class is then pushed forward to V.

* ``regular_decompose``: W = Z1 union Z2 with both pieces regularly
  embedded with known normal bundles, meeting transversally along their
  intersection.  The adjunct of each piece is supported on the
  intersection and built from Segre classes of the two normal bundles;
  both adjuncts share one table of products s_x(N1) * s_y(N2).

All classes, Segre classes included, are carriers graded by codimension,
and the evaluators return classes only: a caller that wants degrees
integrates them itself (``chow.integrate`` on a Grassmannian,
``StructElement.integrate`` on a tabulated ring).  Each component is
reported as a main term (the class the piece would contribute if it were
alone, weighted by its own Segre class) plus an adjunct correction;
components always sum to the total intersection class, and the symmetric
evaluator checks that against an independently computed, unregrouped total.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bundles import BundleClass
from .symfunc import exact_int


@dataclass(frozen=True)
class IntersectionSetup:
    """Fixed data of one residual intersection problem.

    ``cN`` is the total Chern class of the pulled-back normal bundle (unit
    constant term required: the formulas feed it into truncated series) and
    ``d`` its codimension.
    """

    cN: object
    d: int

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

    ``ambient_total`` is the full intersection class the components sum to.
    """

    components: tuple[DecompositionComponent, ...]
    ambient_total: object

    @property
    def conserved(self) -> bool:
        total = None
        for component in self.components:
            total = component.total if total is None else total + component.total
        return total == self.ambient_total


def main_term(setup: IntersectionSetup, sZ):
    """The codimension-d part of c(N) * s(Z,V): the one-piece answer."""
    return (setup.cN * sZ).degree_part(setup.d)


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
    low-codimension part), leaving the sum of the two main terms.
    """
    d = setup.d
    if Dclass.degree_part(1) != Dclass:
        raise ValueError("the divisor class must be homogeneous of codimension 1")
    main_d = main_term(setup, sD)
    main_r = main_term(setup, sR)
    zero = setup.cN.zero_like()
    # Powers (-D)^0 .. (-D)^(d-1), each formed once.
    powers = [setup.cN.one_like(), -Dclass]
    while len(powers) < d:
        powers.append(powers[-1] * powers[1])
    outer_d, outer_r = [], []
    for i in range(0, d - 1):
        ci = setup.cN.degree_part(i)
        if ci.is_zero:
            continue
        inner_d, inner_r = [], []
        for j in range(1, d - i):
            weight = comb(d - 1 - i, j)
            s_j = sR.degree_part(j)
            if not s_j.is_zero:
                inner_d.append((weight, s_j, powers[d - i - j]))
            s_far = sR.degree_part(d - i - j)
            if not s_far.is_zero:
                inner_r.append((weight, powers[j], s_far))
        outer_d.append((1, ci, zero.add_products(inner_d)))
        outer_r.append((1, ci, zero.add_products(inner_r)))
    adj_d = zero.add_products(outer_d)
    adj_r = zero.add_products(outer_r)
    components = (
        DecompositionComponent(labels[0], main_d, adj_d, main_d + adj_d),
        DecompositionComponent(labels[1], main_r, adj_r, main_r + adj_r),
    )
    return Decomposition(components, components[0].total + components[1].total)


def _divisor_segre(e):
    """Segre class e * (1 + e)^-1 of an effective divisor with class ``e``."""
    return e * (1 + e).series_inverse()


def symmetric_decompose(
    setup: IntersectionSetup,
    e1,
    e2,
    labels: tuple[str, str] = ("Z1", "Z2"),
) -> Decomposition:
    """Split the class between two divisors dominating W on a blow-up.

    ``setup`` and the divisor classes ``e1`` and ``e2`` live upstairs, in a
    ring whose classes have a ``pushforward()`` to the base.  The split is
    ``divisor_decompose`` with D = E1 and R = E2, every class pushed
    forward.  The reported ambient total is the one-piece term of the whole
    divisor E1 + E2, pushed forward, so components summing to it is a
    genuine check of the binomial regrouping, not a tautology.
    """
    # ``divisor_decompose`` checks e1, which it receives as the divisor class.
    if e2.degree_part(1) != e2:
        raise ValueError("divisor classes must be homogeneous of codimension 1")
    upstairs = divisor_decompose(
        setup, _divisor_segre(e1), e1, _divisor_segre(e2), labels=labels
    )
    components = []
    for c in upstairs.components:
        main, adjunct = c.main.pushforward(), c.adjunct.pushforward()
        components.append(DecompositionComponent(c.label, main, adjunct, main + adjunct))
    ambient = main_term(setup, _divisor_segre(e1 + e2)).pushforward()
    return Decomposition(tuple(components), ambient)


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
    products per Chern degree i, accumulates the products of those sums
    with c_i(N) in one ``add_products`` call, and multiplies the total by
    ``zint`` once.
    """
    d = setup.d
    r1, r2 = N1.rank, N2.rank
    zero = setup.cN.zero_like()

    def main_for(N_l: BundleClass, z_l):
        # Only the codimension-e part of c(N) * s(N_l) is needed, so form
        # it directly as the sum of c_i(N) * s_{e-i}(N_l).
        excess_codim = d - N_l.rank
        triples = []
        for i in range(0, excess_codim + 1):
            ci = setup.cN.degree_part(i)
            if not ci.is_zero:
                triples.append((1, ci, N_l.segre(excess_codim - i)))
        return zero.add_products(triples) * z_l

    # The adjunct of Z_l sums comb(d-1-i, a + r_other) * c_i(N) *
    # s_a(N_other) * s_b(N_l) over i + a + b = d - r1 - r2.
    # Each s_x(N1) multiplies the sum of s_y(N2) over y <= span - x once,
    # and the product splits by degree into the pairs with that x.
    span = d - r1 - r2
    partials = []
    partial = zero
    for y in range(span + 1):
        partial = partial + N2.segre(y)
        partials.append(partial)
    pairs = {}
    for x in range(span + 1):
        row = N1.segre(x) * partials[span - x]
        for y in range(span + 1 - x):
            pairs[x, y] = row.degree_part(x + y)

    def adjunct_for(r_o: int, pair_of):
        outer = []
        for i in range(0, span + 1):
            ci = setup.cN.degree_part(i)
            if ci.is_zero:
                continue
            inner = zero
            for a in range(span - i + 1):
                inner = inner + pair_of(a, span - i - a).scaled(comb(d - 1 - i, a + r_o))
            outer.append((1, ci, inner))
        return zero.add_products(((-1, zero.add_products(outer), zint),))

    main1, main2 = main_for(N1, z1), main_for(N2, z2)
    # Z1's adjunct pairs s_a(N2) with s_b(N1); Z2's pairs s_a(N1) with s_b(N2).
    adj1 = adjunct_for(r2, lambda a, b: pairs[b, a])
    adj2 = adjunct_for(r1, lambda a, b: pairs[a, b])
    components = (
        DecompositionComponent(labels[0], main1, adj1, main1 + adj1),
        DecompositionComponent(labels[1], main2, adj2, main2 + adj2),
    )
    return Decomposition(components, components[0].total + components[1].total)
