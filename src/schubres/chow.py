"""Chow rings: Grassmannians in Schubert form, plus small tabulated rings.

Two ring models live here.  ``GrassContext`` presents the Chow ring of the
Grassmannian of projective r-planes in projective n-space as a truncated
polynomial ring in the Chern classes of the dual tautological subbundle,
with conversion to the Schubert basis and exact integration, optionally
paired with a Schubert class.  ``StructRing`` is a finite graded ring given
by explicit integer structure constants, used for ambient spaces such as a
blown-up plane where a handful of basis classes suffice; it optionally
carries a pushforward to another such ring.  It is built from one
description, the mapping a ring file holds, and the builtin rings
(``projective_space``, ``blowup_plane_at_point``) are written in that form
too.  Its elements, ``StructElement``, are the second
``symfunc.ClassCarrier`` next to ``GradedPoly``: all their arithmetic,
comparison, degree parts, printing and series inversion come from that base
class, and ``StructRing`` supplies only its key algebra, on basis indices
multiplied by the structure constants.  Ring descriptions must give
integers; a float or bool is refused, not rounded.

Integration over the Grassmannian is implemented twice on purpose: the
production path converts to the Schubert basis via the Pieri rule for the
dual subbundle's Chern classes, and ``integrate_bott`` sums over the
torus-fixed points by Bott's residue formula, in plain integers.  The two
routes share nothing but the validation of their arguments and must agree,
paired counts included.

The production path is linear in the polynomial: each Chern monomial c^a is
expanded once per ``GrassContext`` and kept in a memo on that context, built
as one Pieri step from the memoized c^(a - e_i).  Converting or integrating a
polynomial then costs one lookup per term, and the memo never grows beyond
the monomials of weighted degree up to the dimension.

A Schubert expansion is a plain dict from a partition's parts (a tuple with
no trailing zeros, equal to ``Partition.parts``) to its nonzero coefficient.
``Partition`` is the validated type where a partition enters from outside
(``GrassContext.box``, the ``pairing`` of ``integrate`` and
``integrate_bott``); the Pieri rule and integration build none.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping

from .errors import ContextMismatchError, RingFormatError, UnsupportedOperationError
from .symfunc import (
    ClassCarrier,
    GeneratorSpec,
    GradedPoly,
    Immutable,
    Value,
    add_terms,
    exact_int,
    parse_linear_terms,
)


class Partition(Value):
    """Weakly decreasing positive parts; the empty partition is allowed.

    A Schubert class sigma_l is named by its partition l, which must fit
    the k by (n - r) box of its Grassmannian.  Partitions are immutable and
    compare and hash by their parts, with trailing zeros dropped.
    """

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        parts = tuple(exact_int(p, "partition part") for p in parts)
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

    def fits_in_box(self, rows: int, cols: int) -> bool:
        return len(self.parts) <= rows and (not self.parts or self.parts[0] <= cols)

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


class GrassContext(Value):
    """The Grassmannian of projective r-planes in projective n-space.

    Its Chow ring is generated by the Chern classes of the rank k = r + 1
    dual tautological subbundle, truncated above the dimension k(n - r).
    Schubert classes are indexed by partitions in the k by (n - r) box, and
    the class of a point is the full box.  Contexts are immutable and
    compare and hash by r and n alone, so equal contexts built apart share
    every cache entry keyed by one.
    """

    __slots__ = ("r", "n", "_spec", "_schubert_memo", "__weakref__")
    _fields = ("r", "n")

    def __init__(self, r: int, n: int) -> None:
        r, n = exact_int(r, "r"), exact_int(n, "n")
        if r < 0 or n <= r:
            raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
        k = r + 1
        if k <= len(_GENERATOR_LETTERS):
            names = _GENERATOR_LETTERS[:k]
        else:
            names = tuple(f"c{i}" for i in range(1, k + 1))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "_spec", GeneratorSpec(names, tuple(range(1, k + 1)), k * (n - r))
        )
        # Packed monomial key -> Schubert expansion of that Chern monomial,
        # filled by ``_monomial_schubert``.  Not compared, hashed or printed.
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


def _pairing_parts(ctx: GrassContext, p: GradedPoly, pairing: Partition | None) -> tuple:
    """The parts of ``pairing`` (none: empty) once it fits the box, else
    ``ValueError``, and ``p`` lives on ``ctx``, else ``ContextMismatchError``;
    the one argument check of every route into the Schubert calculus."""
    if pairing is not None and not pairing.fits_in_box(ctx.k, ctx.m):
        raise ValueError(f"{pairing} does not fit the {ctx.k}x{ctx.m} box")
    if p.spec != ctx.spec:
        raise ContextMismatchError("polynomial does not live on this Grassmannian")
    return () if pairing is None else pairing.parts


def to_schubert(ctx: GrassContext, p: GradedPoly) -> dict[tuple[int, ...], int]:
    """Expand a polynomial in the Chern generators in the Schubert basis.

    The result is a new dict from partition parts (``Partition.parts``) to
    nonzero coefficients.  The expansion is linear in ``p``: each term
    contributes its coefficient times the memoized expansion of its monomial.
    """
    _pairing_parts(ctx, p, None)
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
    l = (), the full box.  A pairing outside the box raises ``ValueError``.
    Only that coefficient is read, from each term's memoized expansion."""
    parts = _pairing_parts(ctx, p, pairing)
    padded = parts + (0,) * (ctx.k - len(parts))
    dual = tuple(ctx.m - part for part in reversed(padded) if part < ctx.m)
    return sum(
        coeff * _monomial_schubert(ctx, key).get(dual, 0)
        for key, coeff in p.degree_part(ctx.dim - sum(parts)).packed.items()
    )


def _det(rows: list[list[int]]) -> int:
    """Determinant of a small square integer matrix, by its first row."""
    if not rows:
        return 1
    return sum((-1) ** j * entry * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, entry in enumerate(rows[0]) if entry)


def integrate_bott(ctx: GrassContext, p: GradedPoly, pairing: Partition | None = None) -> int:
    """``integrate`` by Bott's residue formula (Ellingsrud-Stromme, JAMS
    1996), sharing nothing with the Pieri route but ``_pairing_parts``.

    Weight j on coordinate j fixes one point per k-subset I of {0..n}.
    There c_i(U*) is e_i of the roots x = -i (i in I), sigma_l is their
    bialternant det(x_a^(l_b + k - b)) / det(x_a^(k - b)), and the Euler
    class of the tangent space is prod (j - i), i in I, j not in I.  The
    sum of p(I) * sigma_l(I) / Euler(I), with ``p`` read in degree
    dim - |l| only, is taken over one common denominator; a remainder
    raises ``ArithmeticError``.
    """
    parts = _pairing_parts(ctx, p, pairing)
    k, points, unpack = ctx.k, range(ctx.n + 1), ctx.spec.unpack
    terms = [(unpack(key), c) for key, c in p.degree_part(ctx.dim - sum(parts)).packed.items()]
    shape = parts + (0,) * (k - len(parts))
    fractions = []
    for fixed in itertools.combinations(points, k):
        roots, chern = [-i for i in fixed], [1] + [0] * k
        for x in roots:
            for j in range(k, 0, -1):
                chern[j] += x * chern[j - 1]
        value = sum(c * math.prod(map(pow, chern[1:], expo)) for expo, c in terms)
        vandermonde = math.prod(a - b for a, b in itertools.combinations(roots, 2))
        if parts:
            value *= _det([[x ** (lam + k - 1 - b) for b, lam in enumerate(shape)]
                           for x in roots])
        else:
            value *= vandermonde
        euler = math.prod(j - i for i in fixed for j in points if j not in fixed)
        fractions.append((value, euler * vandermonde))
    common = math.lcm(*(den for _, den in fractions))
    total, rest = divmod(sum(num * (common // den) for num, den in fractions), common)
    if rest:
        raise ArithmeticError(f"the Bott sum leaves remainder {rest} over {common}")
    return total


class StructRing(Immutable):
    """Finite graded ring described by integer structure constants.

    The one constructor takes the mapping a ring file holds: ``basis``
    (labels), ``degrees``, optional ``name`` (else ``name_hint``),
    ``products`` (``"a*b": expression``), ``integral`` (label to integer)
    and ``pushforward`` (a ``target`` that is a builtin ring name or a
    nested description, plus a ``map`` from each label to an expression in
    the target's basis).  The builtin rings are written in the same form.
    A bare integer in an expression is that multiple of the unit.  A block
    of the wrong shape, an unknown label or a non-integer raises
    ``RingFormatError``.

    The basis must contain exactly one degree-zero element, which acts as
    the unit.  Products may list either ordering of a basis pair; missing
    pairs are zero, which covers all products landing above the top degree,
    and a product listed as zero is the same ring as one left out.
    Validation checks grading, commutativity, associativity on all basis
    triples, that the integral is supported in the top degree, and that a
    pushforward shifts codimension consistently with the dimensions of the
    two rings.
    """

    __slots__ = ("name", "labels", "degrees", "_index", "unit_key", "_table",
                 "_integral", "_pushforward")

    def __init__(self, description: Mapping, name_hint: str = "ring") -> None:
        what = f"ring {name_hint!r}"
        data = check_keys(
            description, what, ("basis", "degrees"),
            ("name", "products", "integral", "pushforward"),
        )
        labels = tuple(str(label) for label in _block(data, "basis", what, "list"))
        degrees = tuple(
            exact_int(d, "degree", RingFormatError) for d in _block(data, "degrees", what, "list")
        )
        if len(labels) != len(degrees):
            raise RingFormatError("basis and degrees must have equal length")
        if len(set(labels)) != len(labels):
            raise RingFormatError("basis labels must be distinct")
        if any(d < 0 for d in degrees):
            raise RingFormatError("degrees must be non-negative")
        units = [i for i, d in enumerate(degrees) if d == 0]
        if len(units) != 1:
            raise RingFormatError("need exactly one degree-zero basis element")
        object.__setattr__(self, "name", str(data.get("name", name_hint)))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_index", {label: i for i, label in enumerate(labels)})
        object.__setattr__(self, "unit_key", units[0])

        table: dict[tuple[int, int], dict[int, int]] = {}
        for key, value in _block(data, "products", what).items():
            where = f"product {key!r}"
            pieces = [piece.strip() for piece in str(key).split("*")]
            if len(pieces) != 2 or not all(pieces):
                raise RingFormatError(f"product key must look like 'a*b', got {key!r}")
            ia, ib = sorted(self._position(piece, where) for piece in pieces)
            entry = self._read(value, where)
            if table.setdefault((ia, ib), entry) != entry:
                raise RingFormatError(f"conflicting products for {labels[ia]}*{labels[ib]}")
        object.__setattr__(self, "_table", table)

        integral: dict[int, int] = {}
        for label, coeff in _block(data, "integral", what).items():
            i = self._position(str(label), "integral")
            if exact_int(coeff, "integral", RingFormatError):
                integral[i] = coeff
        object.__setattr__(self, "_integral", integral)

        pushforward = None
        if data.get("pushforward") is not None:
            what = f"pushforward of ring {name_hint!r}"
            block = check_keys(data["pushforward"], what, ("target", "map"))
            target = block["target"]
            target = (builtin_ring(target) if isinstance(target, str)
                      else StructRing(target, f"{name_hint}.target"))
            image = {}
            for label, value in _block(block, "map", what).items():
                image[self._position(str(label), "pushforward map")] = StructElement(
                    target, target._read(value, f"pushforward of {label!r}")
                )
            pushforward = (target, image)
        object.__setattr__(self, "_pushforward", pushforward)
        self._validate()
        # Zero products were kept for the unit and conflict checks; dropped
        # now, a product listed as zero and one left out are the same ring.
        object.__setattr__(self, "_table", {pair: e for pair, e in table.items() if e})

    @property
    def top_degree(self) -> int:
        return max(self.degrees)

    truncation = top_degree

    @property
    def pushforward_target(self) -> "StructRing":
        if self._pushforward is None:
            raise UnsupportedOperationError(f"ring {self.name!r} has no pushforward")
        return self._pushforward[0]

    def _validate(self) -> None:
        top = self.top_degree
        for (ia, ib), entry in self._table.items():
            degree = self.degrees[ia] + self.degrees[ib]
            if self.unit_key in (ia, ib):
                other = ib if ia == self.unit_key else ia
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
                for j in value.packed:
                    if target.degrees[j] != expected:
                        raise RingFormatError(
                            f"pushforward of {self.labels[i]!r} is not homogeneous "
                            f"of degree {expected}"
                        )

    def basis_element(self, i: int) -> "StructElement":
        return StructElement(self, {i: 1})

    def element(self, label: str) -> "StructElement":
        return self.basis_element(self._position(label))

    def zero(self) -> "StructElement":
        return StructElement(self, {})

    def one(self) -> "StructElement":
        return self.basis_element(self.unit_key)

    def parse(self, text: str) -> "StructElement":
        """Parse a linear combination of basis labels such as ``2*h - P``.

        A bare integer is that multiple of the unit.  A power or product of
        labels raises ``ValueError``, an unknown label ``KeyError``.
        """
        return StructElement(self, self._read(text))

    def _position(self, label: str, where: str | None = None) -> int:
        """Index of the basis label ``label``.  An unknown label raises
        ``KeyError``, or ``RingFormatError`` naming ``where`` if given."""
        i = self._index.get(label)
        if i is None:
            if where is None:
                raise KeyError(f"no basis label {label!r} in ring {self.name!r}")
            raise RingFormatError(f"{where} names label {label!r}, which ring {self.name!r} lacks")
        return i

    def _read(self, text, where: str | None = None) -> dict[int, int]:
        """Index-to-coefficient map of the linear expression ``text``, a
        string or an integer; a power or product of labels, or a value of
        another type, raises ``RingFormatError``."""
        if isinstance(text, bool) or not isinstance(text, (str, int)):
            raise RingFormatError(f"expected a linear expression, got {text!r}")
        pairs = []
        for coeff, factors in parse_linear_terms(str(text)):
            if len(factors) > 1 or (factors and factors[0][1] != 1):
                raise RingFormatError(f"expected a linear expression, got {text!r}")
            key = self._position(factors[0][0], where) if factors else self.unit_key
            pairs.append((key, coeff))
        return add_terms({}, pairs)

    # The key algebra ``ClassCarrier`` asks of a ring: keys are basis indices.

    def degree_of(self, i: int) -> int:
        return self.degrees[i]

    def mul_into(self, out: dict[int, int], a: dict[int, int], b: dict[int, int],
                 scale: int) -> None:
        get, unit, table = out.get, self.unit_key, self._table
        for ia, ca in a.items():
            for ib, cb in b.items():
                if ia == unit:
                    entry = {ib: 1}
                elif ib == unit:
                    entry = {ia: 1}
                else:
                    entry = table.get((min(ia, ib), max(ia, ib)), {})
                product = scale * ca * cb
                for i, value in entry.items():
                    out[i] = get(i, 0) + product * value

    def sort_key(self, i: int) -> tuple[int, int]:
        return self.degrees[i], i

    def key_name(self, i: int) -> str:
        return "" if i == self.unit_key else self.labels[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructRing):
            return NotImplemented
        return (
            self.name == other.name
            and self.labels == other.labels
            and self.degrees == other.degrees
            and self._table == other._table
            and self._integral == other._integral
            and self._pushforward == other._pushforward
        )

    def __hash__(self) -> int:
        return hash((self.name, self.labels, self.degrees))

    def __repr__(self) -> str:
        return f"StructRing({self.name!r}, basis={self.labels})"


class StructElement(ClassCarrier):
    """Element of a ``StructRing``: an integer combination of basis classes,
    ``packed`` from basis index to nonzero coefficient.

    A ``ClassCarrier`` whose truncation is the ring's top degree.
    """

    __slots__ = ()

    def __init__(self, ring: StructRing, coeffs: Mapping[int, int]) -> None:
        super().__init__(ring, {
            i: c for i, c in coeffs.items() if exact_int(c, "coefficient", RingFormatError)
        })

    def integrate(self) -> int:
        return sum(
            c * self.ring._integral.get(i, 0) for i, c in self.packed.items()
        )

    def pushforward(self) -> "StructElement":
        target, image = self.ring.pushforward_target, self.ring._pushforward[1]
        return sum((c * image[i] for i, c in self.packed.items()), target.zero())

    def __repr__(self) -> str:
        return f"StructElement({self.to_string()!r} in {self.ring.name})"


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


def _block(data: Mapping, key: str, what: str, shape: str = "mapping"):
    """``data[key]`` once it has ``shape``, a list or a mapping; otherwise
    ``RingFormatError`` names ``what`` and ``key``.  An absent or empty
    mapping block reads as ``{}``."""
    value = data.get(key)
    if value is None and shape == "mapping":
        return {}
    if not isinstance(value, Mapping if shape == "mapping" else (list, tuple)):
        raise RingFormatError(f"{what} key {key!r} must be a {shape}, got {type(value).__name__}")
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
    return StructRing(read_yaml(path), str(path))


def projective_space(m: int) -> StructRing:
    """The Chow ring of projective m-space with basis 1, h, h2, ..."""
    if m < 1:
        raise ValueError("projective space dimension must be positive")
    labels = ["1", "h"] + [f"h{i}" for i in range(2, m + 1)]
    products = {
        f"{labels[i]}*{labels[j]}": labels[i + j] for i in range(1, m) for j in range(i, m + 1 - i)
    }
    return StructRing({
        "name": f"p{m}",
        "basis": labels,
        "degrees": list(range(m + 1)),
        "products": products,
        "integral": {labels[m]: 1},
    })


def blowup_plane_at_point() -> StructRing:
    """The plane blown up at one point, with its pushforward to the plane.

    Basis: unit, hyperplane pullback h, exceptional curve e, point class P.
    The exceptional curve has self-intersection -1 in dimension terms, so
    e*e = -P; h misses the exceptional curve, so h*e = 0.  The pushforward
    collapses e and carries the point class to the point class.
    """
    return StructRing({
        "name": "blowup_p2",
        "basis": ["1", "h", "e", "P"],
        "degrees": [0, 1, 1, 2],
        "products": {"h*h": "P", "e*e": "-P"},
        "integral": {"P": 1},
        "pushforward": {"target": "p2", "map": {"1": "1", "h": "h", "e": "0", "P": "h2"}},
    })


def builtin_ring(name: str) -> StructRing:
    """Look up a ring shipped with the package by name: blowup_p2 or p<m>."""
    if name == "blowup_p2":
        return blowup_plane_at_point()
    if name.startswith("p") and name[1:].isdigit():
        return projective_space(int(name[1:]))
    raise KeyError(f"no builtin ring named {name!r}")
