"""Residual intersection decompositions of an excess intersection class.

Setting: a codimension-d subvariety X of some ambient Y is pulled back to a
variety V of dimension k, meeting it in a degenerate locus W.  The class of
the limiting intersection, {c(N) * s(W,V)} in codimension d, distributes
over the pieces of W.  Three evaluators cover the shapes of W this package
needs:

* ``divisor_decompose``: W = D union R with D a divisor in V.  D enters
  through its divisor class, which fixes s(D,V) = D * (1 + D)^-1, and R
  through its Segre class; the adjunct terms carry binomial weights and
  powers of -D.

* ``symmetric_decompose``: W is dominated by two divisors E1 and E2 on a
  blow-up of V.  It is ``divisor_decompose`` applied upstairs, with D = E1
  and R = E2, each entering through its Segre class s(E) = E * (1 + E)^-1;
  every class is then pushed forward to V.

* ``regular_decompose``: W = Z1 union Z2 with both pieces regularly
  embedded with known normal bundles, meeting transversally along their
  intersection.  The adjunct of each piece is supported on the
  intersection and built from Segre classes of the two normal bundles;
  both adjuncts share one table of products s_x(N1) * s_y(N2).  The main
  term of a piece is its excess class c_e(N - N_l), kept on its normal
  bundle (``BundleClass.excess``), times its class.  It reads s_i(N_l)
  only for i <= d - rank(N_l), and those are all the Segre parts computed,
  since ``BundleClass`` computes them on demand.  Identical pieces are
  split once.

All classes, Segre classes included, are carriers graded by codimension,
and the evaluators return classes only: a caller that wants degrees
integrates them itself (``chow.integrate`` on a Grassmannian,
``StructElement.integrate`` on a tabulated ring).  Each component is
reported as a main term (the class the piece would contribute if it were
alone, weighted by its own Segre class) plus an adjunct correction, and
its total is their sum.  Every adjunct is one weighted sum,
``_adjunct_sum``.  Each ambient total is computed without that regrouping
(the FKLM total, its pushforward, c_d(N)), so ``Decomposition.conserved``
is a real check, and the only conservation check of the package.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

from .symfunc import exact_int

if TYPE_CHECKING:
    from .bundles import BundleClass


class IntersectionSetup:
    """Fixed data of one residual intersection problem.

    ``cN`` is the total Chern class of the pulled-back normal bundle (unit
    constant term required: the formulas feed it into truncated series) and
    ``d`` its codimension.
    """

    __slots__ = ("cN", "d")

    def __init__(self, cN, d: int) -> None:
        if exact_int(d, "codimension d") < 1:
            raise ValueError(f"codimension d must be a positive integer, got {d}")
        if cN.constant_term != 1:
            raise ValueError(f"c(N) must have constant term 1, got {cN.constant_term}")
        object.__setattr__(self, "cN", cN)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntersectionSetup is immutable")

    def __repr__(self) -> str:
        return f"IntersectionSetup(cN={self.cN!r}, d={self.d!r})"

    def __reduce__(self):
        return IntersectionSetup, (self.cN, self.d)


class DecompositionComponent:
    """One piece of a decomposition: its main term and adjunct correction."""

    __slots__ = ("label", "main", "adjunct")

    def __init__(self, label: str, main, adjunct) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "main", main)
        object.__setattr__(self, "adjunct", adjunct)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DecompositionComponent is immutable")

    @property
    def total(self):
        return self.main + self.adjunct

    def __repr__(self) -> str:
        return (
            f"DecompositionComponent(label={self.label!r}, main={self.main!r}, "
            f"adjunct={self.adjunct!r})"
        )

    def __reduce__(self):
        return DecompositionComponent, (self.label, self.main, self.adjunct)


class Decomposition:
    """Per-component split of the intersection class.

    ``ambient_total`` is computed apart from the components, which must sum to it.
    """

    __slots__ = ("components", "ambient_total")

    def __init__(self, components: tuple[DecompositionComponent, ...], ambient_total) -> None:
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "ambient_total", ambient_total)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Decomposition is immutable")

    @property
    def conserved(self) -> bool:
        zero = self.ambient_total.zero_like()
        return sum((c.total for c in self.components), zero) == self.ambient_total

    def __repr__(self) -> str:
        return (
            f"Decomposition(components={self.components!r}, "
            f"ambient_total={self.ambient_total!r})"
        )

    def __reduce__(self):
        return Decomposition, (self.components, self.ambient_total)


def main_term(setup: IntersectionSetup, sZ):
    """The codimension-d part of c(N) * s(Z,V): the one-piece answer."""
    return (setup.cN * sZ).degree_part(setup.d)


def _divisor_segre(e):
    """Segre class e * (1 + e)^-1 of an effective divisor with class ``e``."""
    return e * (1 + e).series_inverse()


def _adjunct_sum(setup: IntersectionSetup, low_j: int, low_m: int, factors):
    """Sum of c_i(N) * comb(d-1-i, j) * a * b over i + j + m = d, j >= low_j
    and m >= low_m, where ``(a, b) = factors(j, m)`` and ``b`` may be an int.
    One ``add_products`` call per nonzero c_i(N), and one for the sum over i.
    """
    d = setup.d
    zero = setup.cN.zero_like()
    outer = []
    for i in range(0, d - low_j - low_m + 1):
        ci = setup.cN.degree_part(i)
        if not ci.is_zero:
            inner = zero.add_products(
                (comb(d - 1 - i, j), *factors(j, d - i - j))
                for j in range(low_j, d - i - low_m + 1)
            )
            outer.append((1, ci, inner))
    return zero.add_products(outer)


def divisor_decompose(
    setup: IntersectionSetup,
    Dclass,
    sR,
    labels: tuple[str, str] = ("D", "R"),
) -> Decomposition:
    """Split the intersection class between a divisor D and its residual R.

    ``Dclass`` is the divisor class of D, which fixes its Segre class
    D * (1 + D)^-1; ``sR`` is the Segre class of R.  The adjunct terms
    weight Chern classes of N against powers of -D and codimension
    components of s(R,V); every term of either adjunct vanishes when D and
    R share no geometry (sR has no low-codimension part), leaving the sum
    of the two main terms.  The ambient total is the residual intersection
    formula's, so the components summing to it checks their binomial
    weights; the two agree when sR has no degree-zero part, as the Segre
    class of a proper subscheme has none.
    """
    d = setup.d
    if Dclass.degree_part(1) != Dclass:
        raise ValueError("the divisor class must be homogeneous of codimension 1")
    main_d = main_term(setup, _divisor_segre(Dclass))
    main_r = main_term(setup, sR)
    zero = setup.cN.zero_like()
    # Powers (-D)^0 .. (-D)^(d-1), each formed once.
    powers = [setup.cN.one_like(), -Dclass]
    while len(powers) < d:
        powers.append(powers[-1] * powers[1])
    adj_d = _adjunct_sum(setup, 1, 1, lambda j, m: (sR.degree_part(j), powers[m]))
    adj_r = _adjunct_sum(setup, 1, 1, lambda j, m: (powers[j], sR.degree_part(m)))
    components = (
        DecompositionComponent(labels[0], main_d, adj_d),
        DecompositionComponent(labels[1], main_r, adj_r),
    )
    # The ambient total by the residual intersection formula of Fulton,
    # Kleiman, Laksov and MacPherson (Fulton, Intersection Theory, 9.2):
    # {c(N) s(D,V)}_d + {c(N (x) O(-D)) s(R,V)}_d with c(N (x) O(-D)) =
    # sum_i c_i(N) (1 - D)^(d-i).  Its binomial weights come from the powers
    # of 1 - D, not from the regrouping above, so the components are checked.
    one_minus_d = [setup.cN.one_like()]
    while len(one_minus_d) <= d:
        one_minus_d.append(one_minus_d[-1] * (1 - Dclass))
    twisted = zero.add_products(
        (1, setup.cN.degree_part(i), one_minus_d[d - i]) for i in range(d + 1)
    )
    return Decomposition(components, main_d + (twisted * sR).degree_part(d))


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
    forward.  The reported ambient total is the upstairs FKLM total pushed
    forward, so components summing to it is a genuine check of the
    binomial regrouping, not a tautology.
    """
    # ``divisor_decompose`` checks e1, which it receives as the divisor class.
    if e2.degree_part(1) != e2:
        raise ValueError("divisor classes must be homogeneous of codimension 1")
    upstairs = divisor_decompose(setup, e1, _divisor_segre(e2), labels=labels)
    components = tuple(
        DecompositionComponent(c.label, c.main.pushforward(), c.adjunct.pushforward())
        for c in upstairs.components
    )
    return Decomposition(components, upstairs.ambient_total.pushforward())


def regular_decompose(
    setup: IntersectionSetup,
    N1: BundleClass,
    N2: BundleClass,
    z1,
    z2,
    labels: tuple[str, str] = ("Z1", "Z2"),
) -> Decomposition:
    """Split the class between two regularly embedded pieces Z1 and Z2.

    ``N1`` and ``N2`` are their normal bundles inside V and ``z1`` and
    ``z2`` their classes; the pieces meet transversally, so their
    intersection has class z1 * z2.  The main term of each piece is the
    top Chern class of the excess bundle N - N_l on the piece, read as
    ``N_l.excess(c(N), d - r_l)`` times z_l: the excess class is formed
    once and kept on the bundle.  The adjunct is supported on the
    intersection.  Swapping the two pieces swaps the components, so when
    ``N1 is N2 and z1 is z2`` one main term and one adjunct are formed and
    reported for both; pieces only equal in value are split in full.

    The products s_x(N1) * s_y(N2) with x + y <= d - r1 - r2 are formed
    once and shared by both adjuncts.  Each adjunct is an ``_adjunct_sum``
    times z1 * z2, formed once for both.  When d < r1 + r2 both adjuncts
    are zero and nothing of them is multiplied.  The Segre classes are read
    only up to degree d - r_l, and no higher part of them is computed.

    The ambient total is c_d(N): Z1 union Z2 is the zero scheme of a section
    of N, whose localized top Chern class the components split (Fulton,
    Intersection Theory, Prop. 14.1).
    """
    d = setup.d
    r1, r2 = N1.rank, N2.rank
    zero = setup.cN.zero_like()

    # The adjunct of Z_l sums comb(d-1-i, j) * c_i(N) * s_(j-r_other)(N_other)
    # * s_(m-r_l)(N_l) over i + j + m = d, with j >= r_other and m >= r_l.
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

    # Identical pieces swap into each other, so their components are equal
    # and each is formed once.  Only identity is trusted to say so.
    shared = N1 is N2 and z1 is z2
    main1 = N1.excess(setup.cN, d - r1) * z1
    main2 = main1 if shared else N2.excess(setup.cN, d - r2) * z2
    adj1 = adj2 = zero
    if span >= 0:
        zint = z1 * z2

        def adjunct(low_j, low_m, factors):
            return zero.add_products(((-1, _adjunct_sum(setup, low_j, low_m, factors), zint),))

        adj1 = adjunct(r2, r1, lambda j, m: (pairs[m - r1, j - r2], 1))
        adj2 = adj1 if shared else adjunct(r1, r2, lambda j, m: (pairs[j - r1, m - r2], 1))
    components = (
        DecompositionComponent(labels[0], main1, adj1),
        DecompositionComponent(labels[1], main2, adj2),
    )
    return Decomposition(components, setup.cN.degree_part(d))
