"""Chow rings: Grassmannians in Schubert form, plus small tabulated rings.

Two ring models live here.  ``GrassContext`` presents the Chow ring of the
Grassmannian of projective r-planes in projective n-space as a truncated
polynomial ring in the Chern classes of the dual tautological subbundle,
with conversion to the Schubert basis and exact integration, optionally
paired with a Schubert class.  ``StructRing`` is a finite graded ring given by explicit integer
structure constants, used for ambient spaces such as a blown-up plane where
a handful of basis classes suffice; it optionally carries a pushforward to
another such ring.  Its elements, ``StructElement``, are the second
``symfunc.ClassCarrier`` next to ``GradedPoly``: the arithmetic the protocol
derives, series inversion and printing come from that base class.  Ring
descriptions must give integers; a float or bool is refused, not rounded.

Integration over the Grassmannian is implemented twice on purpose: the
production path converts to the Schubert basis via the Pieri rule for the
dual subbundle's Chern classes, and ``integrate_oracle`` expands everything
into Chern roots and reads one coefficient off an alternant.  The two routes
share no code beyond polynomial arithmetic and must agree.

The production path is linear in the polynomial: each Chern monomial c^a is
expanded once per ``GrassContext`` and kept in a memo on that context, built
as one Pieri step from the memoized c^(a - e_i).  Converting or integrating a
polynomial then costs one lookup per term, and the memo never grows beyond
the monomials of weighted degree up to the dimension.

A Schubert expansion is a plain dict from a partition's parts (a tuple with
no trailing zeros, equal to ``Partition.parts``) to its nonzero coefficient.
``Partition`` is the validated type where a partition enters from outside
(``schubert_poly``, ``GrassContext.box``, the ``pairing`` of ``integrate``);
the Pieri rule and integration build none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import ContextMismatchError, RingFormatError, UnsupportedOperationError
from .symfunc import (
    ClassCarrier,
    GeneratorSpec,
    GradedPoly,
    add_terms,
    elementary_symmetric,
    exact_int,
    format_terms,
    parse_linear_terms,
    root_spec,
    substitute,
)


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing positive parts; the empty partition is allowed."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(exact_int(p, "partition part") for p in self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        return self.parts[i] if i < len(self.parts) else 0

    def fits_in_box(self, rows: int, cols: int) -> bool:
        return self.length <= rows and (not self.parts or self.parts[0] <= cols)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(
                sum(1 for p in self.parts if p > j) for j in range(self.parts[0])
            )
        )

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions with at most ``rows`` parts, each at most ``cols``."""
    out: list[Partition] = []

    def extend(prefix: list[int], bound: int) -> None:
        out.append(Partition(tuple(prefix)))
        if len(prefix) == rows:
            return
        for p in range(bound, 0, -1):
            prefix.append(p)
            extend(prefix, p)
            prefix.pop()

    extend([], cols)
    return sorted(out, key=lambda p: (p.size, p.parts))


_GENERATOR_LETTERS = ("x", "y", "z")


@dataclass(frozen=True)
class GrassContext:
    """The Grassmannian of projective r-planes in projective n-space.

    Its Chow ring is generated by the Chern classes of the rank k = r + 1
    dual tautological subbundle, truncated above the dimension k(n - r).
    Schubert classes are indexed by partitions in the k by (n - r) box, and
    the class of a point is the full box.
    """

    r: int
    n: int

    def __post_init__(self) -> None:
        r, n = exact_int(self.r, "r"), exact_int(self.n, "n")
        if r < 0 or n <= r:
            raise ValueError(f"need 0 <= r < n, got r={self.r}, n={self.n}")
        k = self.k
        if k <= len(_GENERATOR_LETTERS):
            names = _GENERATOR_LETTERS[:k]
        else:
            names = tuple(f"c{i}" for i in range(1, k + 1))
        object.__setattr__(
            self, "_spec", GeneratorSpec(names, tuple(range(1, k + 1)), self.dim)
        )
        # Packed monomial key -> Schubert expansion of that Chern monomial,
        # filled by ``_monomial_schubert``.  Not a dataclass field, so
        # equality, hashing and repr still see only r and n.
        object.__setattr__(self, "_schubert_memo", {})

    @property
    def k(self) -> int:
        return self.r + 1

    @property
    def m(self) -> int:
        return self.n - self.r

    @property
    def dim(self) -> int:
        return self.k * self.m

    @property
    def spec(self) -> GeneratorSpec:
        return self._spec

    @property
    def box(self) -> Partition:
        return Partition((self.m,) * self.k)

    def chern_generator(self, i: int) -> GradedPoly:
        """The i-th Chern class of the dual tautological subbundle."""
        if not 1 <= i <= self.k:
            raise IndexError(f"Chern index {i} outside 1..{self.k}")
        return GradedPoly.generator(self.spec, self.spec.names[i - 1])


def _vertical_strip_targets(
    parts: tuple[int, ...], i: int, rows: int, cols: int
) -> list[tuple[int, ...]]:
    # Adding a vertical strip means at most one new box per row; the result
    # must stay a partition inside the rows-by-cols box.  Parts are weakly
    # decreasing, so dropping the zeros drops exactly the trailing ones.
    padded = parts + (0,) * (rows - len(parts))
    targets = []
    for chosen in itertools.combinations(range(rows), i):
        grown = list(padded)
        for row in chosen:
            grown[row] += 1
        if grown[0] > cols:
            continue
        if any(grown[j] < grown[j + 1] for j in range(rows - 1)):
            continue
        targets.append(tuple(p for p in grown if p))
    return targets


def dual_pieri_multiply(
    ctx: GrassContext, vector: Mapping[tuple[int, ...], int], i: int
) -> dict[tuple[int, ...], int]:
    """Multiply a Schubert combination by the i-th Chern class of the dual
    tautological subbundle.

    A combination maps the parts of each partition in the box (no trailing
    zeros) to its coefficient.  The product of a Schubert class with that
    Chern class is the sum of the Schubert classes obtained by adding a
    vertical strip of i boxes, staying inside the box; classes that grow out
    of the box vanish.
    """
    if not 1 <= i <= ctx.k:
        raise IndexError(f"Pieri index {i} outside 1..{ctx.k}")
    pairs = (
        (target, coeff)
        for parts, coeff in vector.items()
        for target in _vertical_strip_targets(parts, i, ctx.k, ctx.m)
    )
    return add_terms({}, pairs)


def _monomial_schubert(ctx: GrassContext, key: int) -> dict[tuple[int, ...], int]:
    """Schubert expansion of the Chern monomial with packed key ``key``,
    memoized on ``ctx``; the caller must not mutate it.

    c^a is one Pieri step from c^(a - e_i), i the last generator present, so
    each new entry costs exactly one ``dual_pieri_multiply``; the key of
    c^(a - e_i) is the key of c^a minus the key of c_i.  Only a new entry
    unpacks its key.  The memo holds at most one entry per monomial of
    weighted degree up to ``ctx.dim``.
    """
    memo = ctx._schubert_memo
    vector = memo.get(key)
    if vector is None:
        spec = ctx.spec
        expo = spec.unpack(key)
        i = max((j for j, e in enumerate(expo) if e), default=None)
        if i is None:
            vector = {(): 1}
        else:
            parent = _monomial_schubert(ctx, key - spec.generator_keys[i])
            vector = dual_pieri_multiply(ctx, parent, i + 1)
        memo[key] = vector
    return vector


def to_schubert(ctx: GrassContext, p: GradedPoly) -> dict[tuple[int, ...], int]:
    """Expand a polynomial in the Chern generators in the Schubert basis.

    The result is a new dict from partition parts (``Partition.parts``) to
    nonzero coefficients.  The expansion is linear in ``p``: each term
    contributes its coefficient times the memoized expansion of its monomial.
    """
    if p.spec != ctx.spec:
        raise ContextMismatchError("polynomial does not live on this Grassmannian")
    out: dict[tuple[int, ...], int] = {}
    for key, coeff in p.packed.items():
        expansion = _monomial_schubert(ctx, key)
        add_terms(out, ((parts, coeff * value) for parts, value in expansion.items()))
    return out


def integrate(ctx: GrassContext, p: GradedPoly, pairing: Partition | None = None) -> int:
    """Degree of ``p``, paired with the Schubert class of ``pairing`` l if
    one is given.  Schubert classes pair to one only with their duals, so
    that is the coefficient of l^v, parts m - l_(k+1-i), in the Schubert
    expansion of the part of ``p`` in degree dim - |l|; plain integration is
    l = (), the full box.  A pairing outside the box raises ``ValueError``."""
    if pairing is None:
        size, dual = 0, (ctx.m,) * ctx.k
    else:
        if not pairing.fits_in_box(ctx.k, ctx.m):
            raise ValueError(f"{pairing} does not fit the {ctx.k}x{ctx.m} box")
        size = pairing.size
        parts = (ctx.m - pairing.part(ctx.k - 1 - i) for i in range(ctx.k))
        dual = tuple(part for part in parts if part)
    return to_schubert(ctx, p.degree_part(ctx.dim - size)).get(dual, 0)


def integrate_oracle(ctx: GrassContext, p: GradedPoly) -> int:
    """Integration via Chern roots, independent of the Pieri route.

    Substitutes each Chern generator by the elementary symmetric polynomial
    in k root variables, multiplies by the alternant (the product of all
    root differences), and reads off the coefficient of the staircase
    exponent shifted by the full box.  Kept deliberately separate from
    ``integrate`` so the two can cross-check each other.
    """
    k, m = ctx.k, ctx.m
    rspec = root_spec(k, ctx.dim + k * (k - 1) // 2)
    images = [elementary_symmetric(rspec, i + 1) for i in range(k)]
    expanded = substitute(p, images, GradedPoly.one(rspec))
    alternant = GradedPoly.one(rspec)
    for i in range(k):
        for j in range(i + 1, k):
            diff = GradedPoly.generator(rspec, rspec.names[i]) - GradedPoly.generator(
                rspec, rspec.names[j]
            )
            alternant = alternant * diff
    target = tuple(m + k - 1 - i for i in range(k))
    return (expanded * alternant).packed.get(rspec.pack(target), 0)


def schubert_poly(ctx: GrassContext, partition: Partition) -> GradedPoly:
    """Polynomial representative of a Schubert class in the Chern generators.

    Uses the determinant of the matrix of Chern generators indexed by the
    conjugate partition (the elementary-symmetric determinantal formula).
    """
    if not partition.fits_in_box(ctx.k, ctx.m):
        raise ValueError(f"{partition} does not fit the {ctx.k}x{ctx.m} box")
    conj = partition.conjugate()
    size = conj.length
    if size == 0:
        return GradedPoly.one(ctx.spec)

    def entry(i: int, j: int) -> GradedPoly | None:
        index = conj.part(i) - i + j
        if index < 0 or index > ctx.k:
            return None
        if index == 0:
            return GradedPoly.one(ctx.spec)
        return ctx.chern_generator(index)

    total = GradedPoly.zero(ctx.spec)
    for perm in itertools.permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        product = GradedPoly.constant(ctx.spec, sign)
        for i in range(size):
            factor = entry(i, perm[i])
            if factor is None:
                product = GradedPoly.zero(ctx.spec)
                break
            product = product * factor
        total = total + product
    return total


class StructRing:
    """Finite graded ring described by integer structure constants.

    The basis must contain exactly one degree-zero element, which acts as
    the unit.  Products may list either ordering of a basis pair; missing
    pairs default to zero, which covers all products landing above the top
    degree.  Validation checks grading, commutativity, associativity on all
    basis triples, that the integral is supported in the top degree, and
    that a pushforward (if present) shifts codimension consistently with
    the dimensions of the two rings.
    """

    __slots__ = ("name", "labels", "degrees", "_index", "_unit", "_table",
                 "_integral", "_pushforward")

    def __init__(
        self,
        name: str,
        labels: Iterable[str],
        degrees: Iterable[int],
        products: Mapping[tuple[str, str], Mapping[str, int]],
        integral: Mapping[str, int] = (),
        pushforward: "tuple[StructRing, Mapping[str, Mapping[str, int]]] | None" = None,
    ) -> None:
        labels = tuple(labels)
        degrees = tuple(exact_int(d, "degree", RingFormatError) for d in degrees)
        if len(labels) != len(degrees):
            raise RingFormatError("basis and degrees must have equal length")
        if len(set(labels)) != len(labels):
            raise RingFormatError("basis labels must be distinct")
        if any(d < 0 for d in degrees):
            raise RingFormatError("degrees must be non-negative")
        units = [i for i, d in enumerate(degrees) if d == 0]
        if len(units) != 1:
            raise RingFormatError("need exactly one degree-zero basis element")
        index = {label: i for i, label in enumerate(labels)}
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_unit", units[0])

        table: dict[tuple[int, int], dict[int, int]] = {}
        for (la, lb), value in products.items():
            for label in (la, lb):
                if label not in index:
                    raise RingFormatError(f"product references unknown label {label!r}")
            ia, ib = sorted((index[la], index[lb]))
            entry: dict[int, int] = {}
            for label, coeff in value.items():
                if label not in index:
                    raise RingFormatError(f"product value references unknown label {label!r}")
                if exact_int(coeff, "structure constant", RingFormatError):
                    entry[index[label]] = entry.get(index[label], 0) + coeff
            entry = {i: c for i, c in entry.items() if c}
            if (ia, ib) in table and table[(ia, ib)] != entry:
                raise RingFormatError(
                    f"conflicting products for {labels[ia]}*{labels[ib]}"
                )
            table[(ia, ib)] = entry
        object.__setattr__(self, "_table", table)

        integral_map: dict[int, int] = {}
        items = integral.items() if isinstance(integral, Mapping) else integral
        for label, coeff in items:
            if label not in index:
                raise RingFormatError(f"integral references unknown label {label!r}")
            if exact_int(coeff, "integral", RingFormatError):
                integral_map[index[label]] = coeff
        object.__setattr__(self, "_integral", integral_map)

        if pushforward is not None:
            target, mapping = pushforward
            image: dict[int, "StructElement"] = {}
            for label, value in mapping.items():
                if label not in index:
                    raise RingFormatError(f"pushforward maps unknown label {label!r}")
                image[index[label]] = StructElement(
                    target, {target._index[t]: c for t, c in value.items() if c}
                )
            pushforward = (target, image)
        object.__setattr__(self, "_pushforward", pushforward)
        self._validate()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StructRing is immutable")

    @property
    def top_degree(self) -> int:
        return max(self.degrees)

    @property
    def pushforward_target(self) -> "StructRing":
        if self._pushforward is None:
            raise UnsupportedOperationError(f"ring {self.name!r} has no pushforward")
        return self._pushforward[0]

    def _validate(self) -> None:
        top = self.top_degree
        for (ia, ib), entry in self._table.items():
            degree = self.degrees[ia] + self.degrees[ib]
            if self._unit in (ia, ib):
                other = ib if ia == self._unit else ia
                if entry != {other: 1}:
                    raise RingFormatError("unit must act as the identity")
            for i in entry:
                if self.degrees[i] != degree:
                    raise RingFormatError(
                        f"product {self.labels[ia]}*{self.labels[ib]} is not homogeneous"
                    )
        for i, coeff in self._integral.items():
            if self.degrees[i] != top:
                raise RingFormatError("integral must be supported in the top degree")
        basis = [self.basis_element(i) for i in range(len(self.labels))]
        for a, b, c in itertools.product(basis, repeat=3):
            if (a * b) * c != a * (b * c):
                raise RingFormatError(
                    f"associativity fails on {a}, {b}, {c} in ring {self.name!r}"
                )
        if self._pushforward is not None:
            target, image = self._pushforward
            shift = self.top_degree - target.top_degree
            if shift < 0:
                raise RingFormatError("pushforward target has larger dimension")
            for i in range(len(self.labels)):
                if i not in image:
                    raise RingFormatError(
                        f"pushforward does not map label {self.labels[i]!r}"
                    )
                value = image[i]
                expected = self.degrees[i] - shift
                for j in value.coeffs:
                    if target.degrees[j] != expected:
                        raise RingFormatError(
                            f"pushforward of {self.labels[i]!r} is not homogeneous "
                            f"of degree {expected}"
                        )

    def basis_element(self, i: int) -> "StructElement":
        return StructElement(self, {i: 1})

    def element(self, label: str) -> "StructElement":
        if label not in self._index:
            raise KeyError(f"no basis label {label!r} in ring {self.name!r}")
        return self.basis_element(self._index[label])

    def zero(self) -> "StructElement":
        return StructElement(self, {})

    def one(self) -> "StructElement":
        return self.basis_element(self._unit)

    def parse(self, text: str) -> "StructElement":
        """Parse a linear combination of basis labels such as ``2*h - P``.

        A bare integer is that multiple of the unit.  A power or product of
        labels raises ``ValueError``, an unknown label ``KeyError``.
        """
        terms = _parse_linear_expression(text, self.labels[self._unit]).items()
        return sum((coeff * self.element(label) for label, coeff in terms), self.zero())

    def _mul_basis(self, ia: int, ib: int) -> dict[int, int]:
        if ia == self._unit:
            return {ib: 1}
        if ib == self._unit:
            return {ia: 1}
        return self._table.get((min(ia, ib), max(ia, ib)), {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructRing):
            return NotImplemented
        return (
            self.name == other.name
            and self.labels == other.labels
            and self.degrees == other.degrees
            and self._table == other._table
            and self._integral == other._integral
            and self._pushforward_signature() == other._pushforward_signature()
        )

    def _pushforward_signature(self):
        if self._pushforward is None:
            return None
        target, image = self._pushforward
        return (target.name, target.labels, {i: tuple(sorted(v.coeffs.items())) for i, v in image.items()})

    def __hash__(self) -> int:
        return hash((self.name, self.labels, self.degrees))

    def __repr__(self) -> str:
        return f"StructRing({self.name!r}, basis={self.labels})"


class StructElement(ClassCarrier):
    """Element of a ``StructRing``: an integer combination of basis classes.

    A ``ClassCarrier`` whose truncation is the ring's top degree.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: StructRing, coeffs: Mapping[int, int] = ()) -> None:
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        canonical = {i: c for i, c in items if exact_int(c, "coefficient", RingFormatError)}
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", canonical)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self) -> int:
        return self.coeffs.get(self.ring._unit, 0)

    @property
    def truncation(self) -> int:
        return self.ring.top_degree

    def zero_like(self) -> "StructElement":
        return self.ring.zero()

    def degree_part(self, d: int) -> "StructElement":
        degrees = self.ring.degrees
        return StructElement(
            self.ring, {i: c for i, c in self.coeffs.items() if degrees[i] == d}
        )

    def _check_ring(self, other: "StructElement") -> None:
        if not isinstance(other, StructElement):
            raise ContextMismatchError(f"{other!r} is not an element of {self.ring.name!r}")
        if self.ring is not other.ring and self.ring != other.ring:
            raise ContextMismatchError("elements of different structure rings")

    def __add__(self, other: "StructElement | int") -> "StructElement":
        if isinstance(other, int):
            other = exact_int(other, "operand") * self.ring.one()
        if not isinstance(other, StructElement):
            return NotImplemented
        self._check_ring(other)
        return StructElement(self.ring, add_terms(dict(self.coeffs), other.coeffs.items()))

    def scaled(self, m: int) -> "StructElement":
        exact_int(m, "factor")
        return StructElement(self.ring, {i: c * m for i, c in self.coeffs.items()})

    def add_products(self, triples) -> "StructElement":
        out = dict(self.coeffs)
        get = out.get
        mul_basis = self.ring._mul_basis
        for c, a, b in triples:
            exact_int(c, "product coefficient")
            self._check_ring(a)
            self._check_ring(b)
            for ia, ca in a.coeffs.items():
                for ib, cb in b.coeffs.items():
                    scale = c * ca * cb
                    for i, value in mul_basis(ia, ib).items():
                        out[i] = get(i, 0) + scale * value
        return StructElement(self.ring, out)

    def integrate(self) -> int:
        return sum(
            c * self.ring._integral.get(i, 0) for i, c in self.coeffs.items()
        )

    def pushforward(self) -> "StructElement":
        if self.ring._pushforward is None:
            raise UnsupportedOperationError(
                f"ring {self.ring.name!r} has no pushforward"
            )
        target, image = self.ring._pushforward
        out = target.zero()
        for i, c in self.coeffs.items():
            out = out + c * image[i]
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = other * self.ring.one()
        if not isinstance(other, StructElement):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.coeffs.items())))

    def to_string(self) -> str:
        ring = self.ring
        ordered = sorted(self.coeffs.items(), key=lambda item: (ring.degrees[item[0]], item[0]))
        return format_terms(
            (coeff, "" if i == ring._unit else ring.labels[i]) for i, coeff in ordered
        )

    def __repr__(self) -> str:
        return f"StructElement({self.to_string()!r} in {self.ring.name})"


def _parse_linear_expression(text, unit_label: str) -> dict[str, int]:
    """Parse an element expression into a label-to-coefficient map.

    A bare integer counts as a multiple of ``unit_label``.  Labels are not
    checked here, so ring descriptions can be parsed before their ring
    exists.  A power or product of labels raises ``RingFormatError``.
    """

    def terms() -> Iterator[tuple[str, int]]:
        for coeff, factors in parse_linear_terms(str(text)):
            if len(factors) > 1 or (factors and factors[0][1] != 1):
                raise RingFormatError(f"expected a linear expression, got {text!r}")
            yield (factors[0][0] if factors else unit_label), coeff

    return add_terms({}, terms())


def ring_from_dict(data: Mapping, name_hint: str = "ring") -> StructRing:
    """Build a ``StructRing`` from the declarative mapping form.

    Expected keys: ``basis`` (labels), ``degrees``, optional ``name``,
    ``products`` (``"a*b": expression``), ``integral`` (label to integer)
    and ``pushforward`` (``target`` mapping plus ``map`` of expressions in
    the target basis).  Products not listed are zero; the unit's products
    are implied.
    """
    check_keys(
        data, f"ring {name_hint!r}", ("basis", "degrees"),
        ("name", "products", "integral", "pushforward"),
    )
    labels = tuple(str(label) for label in data["basis"])
    degrees = tuple(exact_int(d, "degree", RingFormatError) for d in data["degrees"])
    units = [label for label, d in zip(labels, degrees) if d == 0]
    if len(units) != 1:
        raise RingFormatError("need exactly one degree-zero basis element")
    unit_label = units[0]

    products: dict[tuple[str, str], dict[str, int]] = {}
    for key, value in (data.get("products") or {}).items():
        pieces = [piece.strip() for piece in str(key).split("*")]
        if len(pieces) != 2 or not all(pieces):
            raise RingFormatError(f"product key must look like 'a*b', got {key!r}")
        products[(pieces[0], pieces[1])] = _parse_linear_expression(value, unit_label)

    integral = {str(k): v for k, v in (data.get("integral") or {}).items()}

    pushforward = None
    if data.get("pushforward") is not None:
        what = f"pushforward of ring {name_hint!r}"
        block = check_keys(data["pushforward"], what, ("target", "map"))
        target_data = block["target"]
        if isinstance(target_data, str):
            target = builtin_ring(target_data)
        else:
            target = ring_from_dict(target_data, name_hint=f"{name_hint}.target")
        target_unit = target.labels[target._unit]
        mapping = {
            str(label): _parse_linear_expression(value, target_unit)
            for label, value in (block["map"] or {}).items()
        }
        pushforward = (target, mapping)

    return StructRing(
        name=str(data.get("name", name_hint)),
        labels=labels,
        degrees=degrees,
        products=products,
        integral=integral,
        pushforward=pushforward,
    )


def check_keys(value, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    """``value``, once it is a mapping that has every ``required`` key and
    no key outside ``required`` and ``optional``.  Otherwise
    ``RingFormatError`` names ``what`` and the first key at fault, so that
    no key of a description goes unread."""
    if not isinstance(value, Mapping):
        raise RingFormatError(f"{what} must be a mapping of keys, got {type(value).__name__}")
    allowed = {*required, *optional}
    for key in required:
        if key not in value:
            raise RingFormatError(f"{what} lacks key {key!r}")
    for key in value:
        if key not in allowed:
            raise RingFormatError(f"{what} has unknown key {key!r}")
    return value


def read_yaml(path):
    """The document in a YAML file; malformed YAML raises ``ValueError``.

    ``yaml`` is imported here, where a file is read, so that a command that
    reads none never loads it.
    """
    import yaml

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path} is not valid YAML: {exc}") from None


def load_ring(path) -> StructRing:
    """Load a ring description from a YAML file."""
    return ring_from_dict(read_yaml(path), name_hint=str(path))


def projective_space(m: int) -> StructRing:
    """The Chow ring of projective m-space with basis 1, h, h2, ..."""
    if m < 1:
        raise ValueError("projective space dimension must be positive")
    labels = ["1", "h"] + [f"h{i}" for i in range(2, m + 1)]
    products = {}
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            if i + j <= m:
                products[(labels[i], labels[j])] = {labels[i + j]: 1}
    return StructRing(
        name=f"p{m}",
        labels=labels,
        degrees=tuple(range(m + 1)),
        products=products,
        integral={labels[m]: 1},
    )


def blowup_plane_at_point() -> StructRing:
    """The plane blown up at one point, with its pushforward to the plane.

    Basis: unit, hyperplane pullback h, exceptional curve e, point class P.
    The exceptional curve has self-intersection -1 in dimension terms, so
    e*e = -P; h misses the exceptional curve, so h*e = 0.  The pushforward
    collapses e and carries the point class to the point class.
    """
    target = projective_space(2)
    return StructRing(
        name="blowup_p2",
        labels=("1", "h", "e", "P"),
        degrees=(0, 1, 1, 2),
        products={
            ("h", "h"): {"P": 1},
            ("h", "e"): {},
            ("e", "e"): {"P": -1},
        },
        integral={"P": 1},
        pushforward=(target, {"1": {"1": 1}, "h": {"h": 1}, "e": {}, "P": {"h2": 1}}),
    )


def builtin_ring(name: str) -> StructRing:
    """Look up a ring shipped with the package by name: blowup_p2 or p<m>."""
    if name == "blowup_p2":
        return blowup_plane_at_point()
    if name.startswith("p") and name[1:].isdigit():
        return projective_space(int(name[1:]))
    raise KeyError(f"no builtin ring named {name!r}")
