"""Exact truncated polynomial rings over declared weighted generators.

Everything downstream computes in rings of the form
``Z[g_1, ..., g_n] / (terms of weighted degree > D)`` where each generator
carries a positive integer degree and D is the truncation bound.  All
arithmetic is exact and every product is truncated eagerly, which is safe
because truncation only ever discards degrees nothing of lower degree can
depend on.

Terms are stored sparsely as a dict from packed monomial keys to nonzero
integer coefficients.  With W = (2 * D).bit_length() bits per field, the
monomial with exponents (e_0, ..., e_{n-1}) and weighted degree w has the key

    w << (n * W) | e_0 << ((n - 1) * W) | ... | e_{n-1}

Every exponent of an in-range monomial is at most D, so the fields of the sum
of two keys are at most 2 * D < 2**W and never carry: the key of a product is
the sum of the keys, its weighted degree is ``key >> (n * W)``, and it is
within the truncation exactly when the sum is below ``(D + 1) << (n * W)``.
Integer order on keys is graded-lex order on monomials.  The layout lives in
``GeneratorSpec`` alone; ``GradedPoly.terms`` unpacks a tuple-keyed view for
callers outside the engine.

``ClassCarrier`` states the protocol every ring of classes follows and is
its one implementation: a class is a dict from keys of its ring to nonzero
integers, and the base class does all the arithmetic, the comparisons, the
degree parts, printing and series inversion (total Segre class from total
Chern class) on that dict.  Each ring supplies only its key algebra: the
degree of a key, the key of the unit, how two dicts of keys multiply, and
how a key prints.  ``GeneratorSpec`` supplies it for this module's
``GradedPoly``, and ``chow.StructRing`` for the tabulated
``chow.StructElement``.  The bundle, residual and identity layers are
written once against the protocol.

The module also rewrites a symmetric polynomial in degree-one root variables
as a polynomial in the elementary symmetric functions, and holds
``Immutable`` and ``Value``, the one base of the package's immutable classes.
"""

from __future__ import annotations

import itertools
import re
from operator import mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from . import kernel
from .errors import ContextMismatchError, NonUnitError, NotSymmetricError
from .errors import UnsupportedOperationError

# Trusted constructors bypass the refusing ``__setattr__`` of the immutable
# classes.
_new = object.__new__
_set = object.__setattr__

Exponent = tuple[int, ...]
TermMap = dict[int, int]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def exact_int(value, what: str, error: type[ValueError] = ValueError) -> int:
    """``value`` itself if it is an int; a float or bool raises ``error``,
    never rounded."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} {value!r} is not an integer")
    return value


def add_terms(out: dict, items: Iterable[tuple[object, int]]) -> dict:
    """Add (key, coefficient) pairs into ``out`` in place, dropping every key
    whose coefficient cancels to zero; returns ``out``."""
    get = out.get
    for key, coeff in items:
        value = get(key, 0) + coeff
        if value:
            out[key] = value
        elif key in out:
            del out[key]
    return out


class Immutable:
    """Base of the package's immutable classes.

    ``_fields`` names the constructor's arguments in order.  Assignment is
    refused with ``AttributeError``; trusted code sets a slot through
    ``object.__setattr__``.  The repr is ``Name(field=value, ...)`` over
    the fields, and a copy or a pickle is rebuilt through the constructor
    from them, so no slot outside the fields (a memo, a derived layout) is
    copied.  A class without fields refuses to be copied or pickled.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        if not self._fields:
            raise TypeError(f"{type(self).__name__} cannot be copied or pickled")
        return type(self), self._values()


class Value(Immutable):
    """An ``Immutable`` that compares and hashes by its fields, and only by
    them: equal values built apart are interchangeable, as cache keys too."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class GeneratorSpec(Value):
    """Names, weighted degrees and truncation bound of a polynomial ring.

    A spec with no generators is the ring of plain integers (every element is
    a constant).  Specs are immutable and compare and hash by their three
    fields, so equal specs built independently are interchangeable.  The
    packed key layout of the module docstring is derived from the fields:
    ``key_shift`` is n * W, ``key_limit`` is ``(truncation + 1) <<
    key_shift`` and ``generator_keys`` holds the key of each generator.
    ``roots_to_e`` keeps its tables for a root spec on the spec itself,
    outside the fields, so they live exactly as long as it does.
    """

    __slots__ = (
        "names", "degrees", "truncation", "_mask", "_positions", "key_shift",
        "degree_of", "key_limit", "generator_keys", "_e_tables", "__weakref__",
    )
    _fields = ("names", "degrees", "truncation")

    def __init__(self, names: tuple[str, ...], degrees: tuple[int, ...], truncation: int) -> None:
        names = tuple(names)
        degrees = tuple(exact_int(d, "generator degree") for d in degrees)
        if len(names) != len(degrees):
            raise ValueError("names and degrees must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid generator name {name!r}")
        if any(d <= 0 for d in degrees):
            raise ValueError("generator degrees must be positive")
        if exact_int(truncation, "truncation") < 0:
            raise ValueError("truncation must be a non-negative integer")
        width = (2 * truncation).bit_length()
        n = len(degrees)
        shift = n * width
        positions = tuple((n - 1 - i) * width for i in range(n))
        _set(self, "names", names)
        _set(self, "degrees", degrees)
        _set(self, "truncation", truncation)
        _set(self, "_mask", (1 << width) - 1)
        _set(self, "_positions", positions)
        _set(self, "key_shift", shift)
        # ``degree_of(key)`` is ``key >> key_shift``, bound as a builtin so
        # that ``degree_part`` makes no Python call per term.
        _set(self, "degree_of", shift.__rrshift__)
        _set(self, "key_limit", (truncation + 1) << shift)
        keys = tuple(d << shift | 1 << pos for d, pos in zip(degrees, positions))
        _set(self, "generator_keys", keys)
        _set(self, "_e_tables", None)

    @property
    def ngens(self) -> int:
        return len(self.names)

    def weighted_degree(self, expo: Exponent) -> int:
        return sum(e * d for e, d in zip(expo, self.degrees))

    def pack(self, expo: Exponent) -> int:
        """The key of a monomial; its exponents must fit the key fields."""
        return sum(map(mul, expo, self.generator_keys))

    def unpack(self, key: int) -> Exponent:
        mask = self._mask
        return tuple(key >> pos & mask for pos in self._positions)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no generator named {name!r}") from None

    # The key algebra ``ClassCarrier`` asks of a ring, with ``degree_of``
    # derived above.  The unit is the empty monomial, whose key is 0.
    unit_key = 0

    def mul_into(self, out: TermMap, a: TermMap, b: TermMap, scale: int) -> None:
        # ``kernel.mul_terms`` is looked up on the module at call time, so a
        # rebinding of it sees every product.
        kernel.mul_terms(a, b, self.key_limit, out, scale)

    def sort_key(self, key: int) -> tuple[int, int]:
        # Ascending weighted degree, then descending key (descending
        # lexicographic exponent), so leading generators print first.
        return key >> self.key_shift, -key

    def key_name(self, key: int) -> str:
        return "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(self.names, self.unpack(key))
            if e
        )


class ClassCarrier(Immutable):
    """An immutable element of a graded ring of classes, truncated above a
    top degree.

    This is the whole interface the bundle, residual and identity layers may
    use of a class:

    * ``a + b``, ``a - b``, ``-a`` and ``a * b``, where either operand may be
      an ``int`` (read as that multiple of the unit) and two carriers must
      live in the same ring (else ``ContextMismatchError``); ``a ** n`` for
      ``n >= 0``; ``a == b``, hashing and truth (nonzero);
    * ``add_products(triples)``, ``self + sum(c * a * b)`` over (int c,
      carrier a, carrier or int b) triples, zeros dropped once for the whole
      sum; an ``int`` b adds c * b * a with no product formed;
    * ``scaled(m)``, the carrier times an ``int``;
    * ``degree_part(d)``, the homogeneous part of degree d (zero outside
      0..truncation); ``degree_scale(m)``, each degree-i part times m**i;
    * ``zero_like()`` and ``one_like()``, the zero and unit of the ring;
    * ``constant_term``, the unit coefficient as an int; ``is_zero``;
      ``truncation``, the top degree the ring keeps;
    * ``series_inverse()``, the inverse of an element with constant term 1;
    * ``to_string()``, also ``str(a)``;
    * ``pushforward()``, the image in a base ring; this base raises
      ``UnsupportedOperationError``, and a ring with a pushforward overrides it.

    A class is stored as ``packed``, a dict from keys of its ``ring`` to
    nonzero ints, and this base implements every member above on that dict.
    The homogeneous parts are split out on first use and kept, so repeated
    ``degree_part`` calls on one class do not rescan its terms.  The ring
    supplies only how its keys behave: ``truncation``; ``unit_key``, the key
    of the unit; ``degree_of(key)``; ``mul_into(out, a, b, scale)``, which
    adds ``scale * a * b`` of two key dicts into the dict ``out``, zeros
    included; ``sort_key(key)``, the printing order; and ``key_name(key)``,
    the printed key, empty for the unit.  Two carriers live in the same ring
    when their rings are equal.  A degree, an exponent, a scale factor, or a
    product coefficient or factor that is a float or a bool raises
    ``ValueError``, and so does a bool operand of an operator or of ``==``:
    nothing is rounded, and a bool is never read as 0 or 1.
    """

    __slots__ = ("ring", "packed", "_parts")

    def __init__(self, ring, packed: dict) -> None:
        # Trusting, as ``_raw``: the carriers' constructors validate first.
        _set(self, "ring", ring)
        _set(self, "packed", packed)
        _set(self, "_parts", None)

    @classmethod
    def _raw(cls, ring, packed: dict) -> "ClassCarrier":
        # Trusted constructor: packed must already be canonical.
        self = _new(cls)
        _set(self, "ring", ring)
        _set(self, "packed", packed)
        _set(self, "_parts", None)
        return self

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def constant_term(self) -> int:
        return self.packed.get(self.ring.unit_key, 0)

    @property
    def truncation(self) -> int:
        return self.ring.truncation

    def zero_like(self) -> "ClassCarrier":
        return self._raw(self.ring, {})

    def one_like(self) -> "ClassCarrier":
        return self._raw(self.ring, {self.ring.unit_key: 1})

    def _check(self, other: object) -> None:
        if not isinstance(other, ClassCarrier) or (
            other.ring is not self.ring and other.ring != self.ring
        ):
            raise ContextMismatchError(f"{other!r} does not live in the ring of {self!r}")

    def __add__(self, other: "ClassCarrier | int") -> "ClassCarrier":
        if isinstance(other, int):
            unit = {self.ring.unit_key: other} if exact_int(other, "operand") else {}
            other = self._raw(self.ring, unit)
        elif not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._raw(self.ring, add_terms(dict(self.packed), other.packed.items()))

    # The reflected operators call the carrier's own methods directly, so an
    # operand of a foreign type gets NotImplemented back instead of bouncing
    # between two reflected methods.
    def __radd__(self, other: int) -> "ClassCarrier":
        return self.__add__(other)

    # Both ``-`` operators check an int operand themselves: ``a - True``
    # negates it into a plain int before ``__add__`` sees it.
    def __sub__(self, other: "ClassCarrier | int") -> "ClassCarrier":
        if isinstance(other, int):
            exact_int(other, "operand")
        return self.__add__(-other)

    def __rsub__(self, other: int) -> "ClassCarrier":
        if isinstance(other, int):
            exact_int(other, "operand")
        return (-self).__add__(other)

    def __neg__(self) -> "ClassCarrier":
        return self.scaled(-1)

    def scaled(self, m: int) -> "ClassCarrier":
        if exact_int(m, "factor") == 0:
            return self.zero_like()
        return self._raw(self.ring, {k: c * m for k, c in self.packed.items()})

    def add_products(
        self, triples: Iterable[tuple[int, "ClassCarrier", object]]
    ) -> "ClassCarrier":
        # Every product accumulates into the same dict through the ring's
        # ``mul_into``; the checks take a fast path for operands of this
        # very ring.
        ring, cls = self.ring, type(self)
        mul_into = ring.mul_into
        out = dict(self.packed)
        get = out.get
        for c, a, b in triples:
            if type(c) is not int:
                exact_int(c, "product coefficient")
            if type(a) is not cls or a.ring is not ring:
                self._check(a)
            if isinstance(b, (int, float)):
                # Accumulated in place, as ``kernel.mul_terms`` does.
                m = c * exact_int(b, "product factor")
                for k, v in a.packed.items():
                    out[k] = get(k, 0) + m * v
                continue
            if type(b) is not cls or b.ring is not ring:
                self._check(b)
            mul_into(out, a.packed, b.packed, c)
        return self._raw(ring, {k: v for k, v in out.items() if v})

    def __mul__(self, other: "ClassCarrier | int") -> "ClassCarrier":
        if isinstance(other, int):
            return self.scaled(other)
        if type(other) is not type(self):
            return NotImplemented
        return self.zero_like().add_products(((1, self, other),))

    def __rmul__(self, other: int) -> "ClassCarrier":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "ClassCarrier":
        if exact_int(exponent, "exponent") < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.one_like()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            # An int reads as that multiple of the unit, as in ``+``.
            other = exact_int(other, "operand")
            return self.packed == ({self.ring.unit_key: other} if other else {})
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.ring == other.ring and self.packed == other.packed

    def __hash__(self) -> int:
        # A constant equals its int (see ``__eq__``), so it hashes as one.
        if self.packed.keys() <= {self.ring.unit_key}:
            return hash(self.constant_term)
        return hash((self.ring, frozenset(self.packed.items())))

    def __bool__(self) -> bool:
        return not self.is_zero

    def degree_part(self, d: int) -> "ClassCarrier":
        if type(d) is not int:
            exact_int(d, "degree")
        parts = self._parts
        if parts is None:
            buckets: dict[int, dict] = {}
            degree_of = self.ring.degree_of
            for key, coeff in self.packed.items():
                buckets.setdefault(degree_of(key), {})[key] = coeff
            parts = {i: self._raw(self.ring, t) for i, t in buckets.items()}
            _set(self, "_parts", parts)
        part = parts.get(d)
        return part if part is not None else self.zero_like()

    def degree_scale(self, m: int) -> "ClassCarrier":
        """Multiply each homogeneous degree-i part by m**i, in one pass."""
        exact_int(m, "degree scale")
        degree_of = self.ring.degree_of
        powers = [m**i for i in range(self.truncation + 1)]
        scaled = {k: c * powers[degree_of(k)] for k, c in self.packed.items()}
        return self._raw(self.ring, {k: c for k, c in scaled.items() if c})

    def series_inverse(self) -> "ClassCarrier":
        # Looked up in this module at call time, so the one module-level
        # binding serves every carrier.
        return series_inverse(self)

    def pushforward(self) -> "ClassCarrier":
        raise UnsupportedOperationError(f"{type(self).__name__} has no pushforward")

    def to_string(self) -> str:
        """A signed sum in the ring's printing order.  The unit prints as its
        coefficient, and a unit coefficient is left out in front of any
        other key: ``3 + 2*h - P``."""
        ring, packed = self.ring, self.packed
        chunks: list[str] = []
        for key in sorted(packed, key=ring.sort_key):
            coeff, name = packed[key], ring.key_name(key)
            magnitude = abs(coeff)
            if not name:
                body = str(magnitude)
            elif magnitude == 1:
                body = name
            else:
                body = f"{magnitude}*{name}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks) if chunks else "0"

    def __str__(self) -> str:
        return self.to_string()


class GradedPoly(ClassCarrier):
    """Immutable truncated polynomial with exact integer coefficients.

    Its ring is a ``GeneratorSpec``, also read as ``spec``, and ``packed``
    maps packed monomial keys (see the module docstring) to nonzero
    coefficients, every key within the truncation.  ``terms`` is a read-only
    view of the same terms keyed by exponent tuples.
    """

    __slots__ = ()

    def __init__(
        self,
        spec: GeneratorSpec,
        terms: Mapping[Exponent, int] | Iterable[tuple[Exponent, int]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms

        def packed_items() -> Iterator[tuple[int, int]]:
            for expo, coeff in items:
                expo = tuple(expo)
                if len(expo) != spec.ngens:
                    raise ValueError(
                        f"exponent {expo} has length {len(expo)}, expected {spec.ngens}"
                    )
                if any(exact_int(e, "exponent") < 0 for e in expo):
                    raise ValueError(f"exponents must be non-negative integers: {expo}")
                exact_int(coeff, "coefficient")
                if coeff and spec.weighted_degree(expo) <= spec.truncation:
                    yield spec.pack(expo), coeff

        super().__init__(spec, add_terms({}, packed_items()))

    @property
    def spec(self) -> GeneratorSpec:
        return self.ring

    @property
    def terms(self) -> Mapping[Exponent, int]:
        """The terms keyed by exponent tuples, unpacked on each access."""
        unpack = self.ring.unpack
        return MappingProxyType({unpack(k): c for k, c in self.packed.items()})

    @classmethod
    def zero(cls, spec: GeneratorSpec) -> "GradedPoly":
        return cls._raw(spec, {})

    @classmethod
    def one(cls, spec: GeneratorSpec) -> "GradedPoly":
        return cls.constant(spec, 1)

    @classmethod
    def constant(cls, spec: GeneratorSpec, value: int) -> "GradedPoly":
        if exact_int(value, "constant") == 0:
            return cls.zero(spec)
        return cls._raw(spec, {0: value})

    @classmethod
    def generator(cls, spec: GeneratorSpec, name: str) -> "GradedPoly":
        i = spec.index(name)
        if spec.degrees[i] > spec.truncation:
            return cls.zero(spec)
        return cls._raw(spec, {spec.generator_keys[i]: 1})

    def max_degree(self) -> int:
        """Largest weighted degree with a nonzero term; -1 for the zero poly."""
        if not self.packed:
            return -1
        return max(self.packed) >> self.ring.key_shift

    def __reduce__(self):
        return GradedPoly, (self.ring, dict(self.terms))

    def __repr__(self) -> str:
        return f"GradedPoly({self.to_string()!r})"


def inverse_parts(a: ClassCarrier) -> Iterator[ClassCarrier]:
    """The homogeneous parts b_0, b_1, ..., b_top of the inverse of a class
    with constant term one, each computed only when it is drawn.

    If a = 1 + a_1 + a_2 + ... then b_n = -(a_1 b_{n-1} + ... + a_n b_0),
    one ``add_products`` call per degree.  Uses only the carrier protocol,
    so it serves every ``ClassCarrier``; this is the one inversion
    recurrence, behind ``series_inverse`` and ``BundleClass.segre``.
    """
    if a.constant_term != 1:
        raise NonUnitError(
            f"series inverse needs constant term 1, got {a.constant_term}"
        )
    parts_a = [(j, a.degree_part(j)) for j in range(1, a.truncation + 1)]
    parts_a = [(j, part) for j, part in parts_a if not part.is_zero]
    zero = a.zero_like()
    parts_b = [a.one_like()]
    yield parts_b[0]
    for n in range(1, a.truncation + 1):
        parts_b.append(zero.add_products(
            [(-1, a_j, parts_b[n - j]) for j, a_j in parts_a
             if j <= n and not parts_b[n - j].is_zero]
        ))
        yield parts_b[n]


def series_inverse(a: ClassCarrier) -> ClassCarrier:
    """Multiplicative inverse of a class with constant term one: the sum of
    every part ``inverse_parts`` draws."""
    return sum(inverse_parts(a), a.zero_like())


def root_spec(k: int, truncation: int) -> GeneratorSpec:
    """Spec of k degree-one root variables t1..tk, for splitting-principle work."""
    return GeneratorSpec(tuple(f"t{i}" for i in range(1, k + 1)), (1,) * k, truncation)


def e_spec(k: int, truncation: int) -> GeneratorSpec:
    """Spec of the elementary symmetric functions e1..ek of k roots, e_i in
    degree i."""
    names = tuple(f"e{i}" for i in range(1, k + 1))
    return GeneratorSpec(names, tuple(range(1, k + 1)), truncation)


def elementary_symmetric(spec: GeneratorSpec, i: int) -> GradedPoly:
    """The i-th elementary symmetric polynomial in the spec's generators.

    Only meaningful for specs whose generators all sit in degree one.
    """
    k = spec.ngens
    if i < 0 or i > k:
        return GradedPoly.zero(spec)
    if i == 0:
        return GradedPoly.one(spec)
    terms: TermMap = {}
    for subset in itertools.combinations(spec.generator_keys, i):
        key = sum(subset)
        if key < spec.key_limit:
            terms[key] = 1
    return GradedPoly._raw(spec, terms)


def _descending_partitions(k: int, total: int) -> list[Exponent]:
    """Every weakly decreasing k-tuple of non-negative integers with sum
    ``total``, lexicographically descending, which is descending key order."""

    def parts(total: int, slots: int, cap: int) -> list[Exponent]:
        if not slots:
            return [] if total else [()]
        # The first part is at most ``cap`` and at least the average.
        firsts = range(min(total, cap), -(-total // slots) - 1, -1)
        return [(a,) + rest for a in firsts for rest in parts(total - a, slots - 1, a)]

    return parts(total, k, total)


def roots_to_e(p: GradedPoly, out_spec: GeneratorSpec | None = None) -> GradedPoly:
    """Rewrite a symmetric polynomial in root variables in the e-basis.

    ``p`` must live over a spec whose k generators all have degree one.  The
    result lives over ``out_spec``, whose generators must have degrees
    1, ..., k (the elementary symmetric functions); a default spec named
    e1..ek is created when none is given.  Raises NotSymmetricError when the
    input is not symmetric under permuting the roots.

    One sweep over the weakly decreasing exponents in descending key order:
    the e-monomial e_1^(l_1-l_2) ... e_k^(l_k) is homogeneous with leading
    term t^l of coefficient one, so subtracting the remainder's coefficient
    at t^l times its expansion clears that key and touches only smaller ones.
    A symmetric remainder with no weakly decreasing exponent is zero, so
    whatever is left after the sweep shows the input was not symmetric.
    """
    spec = p.spec
    k = spec.ngens
    if any(d != 1 for d in spec.degrees):
        raise ValueError("roots_to_e input must live over degree-one root variables")
    if out_spec is None:
        out_spec = e_spec(k, spec.truncation)
    if out_spec.degrees != tuple(range(1, k + 1)):
        raise ValueError("output spec must have generator degrees 1..k")
    if out_spec.truncation != spec.truncation:
        raise ValueError("output spec must keep the input truncation")

    # The e-polynomials, the expansion memo and the partitions by total are
    # kept on the root spec and shared by every call over it.
    if spec._e_tables is None:
        e_polys = [elementary_symmetric(spec, i + 1) for i in range(k)]
        _set(spec, "_e_tables", (e_polys, {(0,) * k: GradedPoly.one(spec)}, {}))
    e_polys, expansions, partitions = spec._e_tables

    def expansion(m: Exponent) -> GradedPoly:
        cached = expansions.get(m)
        if cached is not None:
            return cached
        i = max(j for j in range(k) if m[j] > 0)
        parent = tuple(e - 1 if j == i else e for j, e in enumerate(m))
        value = expansion(parent) * e_polys[i]
        expansions[m] = value
        return value

    out: TermMap = {}
    rem = dict(p.packed)
    get = rem.get
    for total in range(p.max_degree(), -1, -1):
        if total not in partitions:
            partitions[total] = _descending_partitions(k, total)
        for lam in partitions[total]:
            coeff = get(spec.pack(lam))
            if coeff is None:
                continue
            m = tuple(a - b for a, b in zip(lam, lam[1:])) + lam[-1:]
            out[out_spec.pack(m)] = coeff
            for key, c in expansion(m).packed.items():
                value = get(key, 0) - coeff * c
                if value:  # a zero difference needs a present key: coeff, c != 0
                    rem[key] = value
                else:
                    del rem[key]
    if rem:
        leftover = spec.unpack(next(iter(rem)))
        raise NotSymmetricError(f"not symmetric: exponent {leftover} is left over")
    return GradedPoly._raw(out_spec, out)


def substitute(p: GradedPoly, images, one):
    """Evaluate ``p`` by sending generator j to ``images[j]``.

    ``images`` are elements of any ring carrier supporting +, *, integer
    scaling and ``zero_like``; ``one`` is that carrier's multiplicative unit.
    Powers of each image are cached, so repeated exponents cost one multiply.
    """
    if len(images) != p.spec.ngens:
        raise ContextMismatchError(
            f"expected {p.spec.ngens} images, got {len(images)}"
        )
    powers: list[dict[int, object]] = [{0: one} for _ in images]

    def power(j: int, e: int):
        cache = powers[j]
        if e not in cache:
            cache[e] = power(j, e - 1) * images[j]
        return cache[e]

    acc = one.zero_like()
    unpack = p.spec.unpack
    for key, coeff in sorted(p.packed.items()):
        term = one * coeff
        for j, e in enumerate(unpack(key)):
            if e:
                term = term * power(j, e)
        acc = acc + term
    return acc


_FACTOR_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)(?:\s*\^\s*(\d+))?)\s*")


def parse_linear_terms(text: str) -> list[tuple[int, list[tuple[str, int]]]]:
    """Parse ``18*x^2*y + 9*y^2`` style text into (coefficient, factors) terms.

    The text splits into terms at each sign and a term into factors at each
    ``*``; every factor is an integer or a name with an optional integer
    exponent, and whitespace around any of them is ignored.  Only a blank
    first term before a sign may be empty.  Each factor is a (name,
    exponent) pair; repeated names are not merged here.  Shared by the
    polynomial parser and the structure-ring element parser.
    """
    pieces = re.split(r"([+-])", text)
    signed = list(zip(["+", *pieces[1::2]], pieces[0::2]))
    if len(signed) > 1 and not signed[0][1].strip():
        signed = signed[1:]
    terms = []
    for sign, term in signed:
        coeff, factors = -1 if sign == "-" else 1, []
        for factor in term.split("*"):
            match = _FACTOR_RE.fullmatch(factor)
            if match is None:
                raise ValueError(
                    f"expected an integer or name[^integer], got {factor!r} in {text!r}"
                )
            number, name, exponent = match.groups()
            if name is None:
                coeff *= int(number)
            else:
                factors.append((name, int(exponent or 1)))
        terms.append((coeff, factors))
    return terms


def parse_poly(spec: GeneratorSpec, text: str) -> GradedPoly:
    """Parse the textual form produced by ``GradedPoly.to_string``."""
    terms: list[tuple[Exponent, int]] = []
    for coeff, factors in parse_linear_terms(text):
        expo = [0] * spec.ngens
        for name, exponent in factors:
            expo[spec.index(name)] += exponent
        terms.append((tuple(expo), coeff))
    return GradedPoly(spec, terms)
