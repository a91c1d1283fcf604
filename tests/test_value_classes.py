"""Value semantics of the package's plain immutable classes.

``GeneratorSpec``, ``Partition``, ``GrassContext`` and ``DegenerationSpec``
compare and hash by their fields, and only by them: caches are keyed by a
context, so two contexts built apart must hit one entry.  Every class takes
its fields positionally or by keyword, refuses assignment, and keeps the
error type and message of each validation.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from schubres import bundles
from schubres.chow import GrassContext, Partition, integrate, projective_space
from schubres.limits import DegenerationSpec, LimitReport, PieceReport, decompose_degeneration
from schubres.residual import Decomposition, DecompositionComponent, IntersectionSetup
from schubres.symfunc import GeneratorSpec, GradedPoly, roots_to_e, root_spec


def _p2_setup() -> IntersectionSetup:
    return IntersectionSetup(projective_space(2).parse("1 + 3*h"), 2)


def _instances() -> list[tuple[object, tuple[str, ...]]]:
    """One instance of each class, with the fields it must refuse to reassign."""
    ctx = GrassContext(1, 3)
    report = decompose_degeneration(DegenerationSpec(ctx, ((1, 1), (1, 2))))
    decomposition = Decomposition((DecompositionComponent("D", 1, 2),), 3)
    return [
        (GeneratorSpec(("x",), (1,), 3), ("names", "degrees", "truncation", "key_limit")),
        (Partition((2, 1)), ("parts",)),
        (ctx, ("r", "n")),
        (report.spec, ("context", "pieces")),
        (report.pieces[0], ("label", "main_class", "total_degree")),
        (report, ("spec", "pieces", "ambient_class", "ambient_degree", "conserved")),
        (_p2_setup(), ("cN", "d")),
        (decomposition.components[0], ("label", "main", "adjunct")),
        (decomposition, ("components", "ambient_total")),
    ]


def test_every_field_refuses_assignment() -> None:
    for instance, fields in _instances():
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(instance, name, None)
            getattr(instance, name)
        with pytest.raises(AttributeError):
            instance.unknown = 1


def test_fields_are_taken_by_position_or_by_keyword() -> None:
    spec = GeneratorSpec(names=("x", "y"), degrees=(1, 2), truncation=4)
    assert spec == GeneratorSpec(("x", "y"), (1, 2), 4)
    assert Partition(parts=(2, 1)) == Partition((2, 1)) and Partition() == Partition(())
    assert GrassContext(r=1, n=4) == GrassContext(1, 4)
    ctx = GrassContext(1, 4)
    pieces = ((1, 4), (1, 1))
    assert DegenerationSpec(context=ctx, pieces=pieces) == DegenerationSpec(ctx, pieces)
    setup = IntersectionSetup(cN=GradedPoly.one(ctx.spec), d=2)
    assert (setup.cN, setup.d) == (GradedPoly.one(ctx.spec), 2)
    one, two, three = (GradedPoly.constant(ctx.spec, c) for c in (1, 2, 3))
    component = DecompositionComponent(label="D", main=one, adjunct=two)
    assert (component.label, component.main, component.adjunct) == ("D", one, two)
    assert component.total == three
    assert Decomposition(components=(component,), ambient_total=three).conserved
    assert not Decomposition((component,), two).conserved
    zero = GradedPoly.zero(ctx.spec)
    values = ("X1", 1, 4, zero, zero, zero, 1, 2, 3)
    names = (
        "label", "degree", "multiplicity", "main_class", "adjunct_class", "total_class",
        "main_degree", "adjunct_degree", "total_degree",
    )
    for piece in (PieceReport(*values), PieceReport(**dict(zip(names, values)))):
        assert tuple(getattr(piece, name) for name in names) == values
    spec = DegenerationSpec(ctx, pieces)
    for report in (
        LimitReport(spec, (piece, piece), zero, 6, False),
        LimitReport(spec=spec, pieces=(piece, piece), ambient_class=zero, ambient_degree=6,
                    conserved=False),
    ):
        assert (report.spec, report.pieces, report.ambient_degree) == (spec, (piece, piece), 6)
        assert (report.ambient_class, report.conserved) == (zero, False)


def test_copies_and_pickles_rebuild_through_the_constructor() -> None:
    # As with the dataclasses, every class copies, and the four value types
    # also deep-copy and pickle to an equal object with an equal hash.
    for instance, fields in _instances():
        twin = copy.copy(instance)
        assert type(twin) is type(instance)
        assert all(getattr(twin, name) == getattr(instance, name) for name in fields)
    for value in (
        GeneratorSpec(("x", "y"), (1, 2), 4),
        Partition((2, 1)),
        GrassContext(1, 4),
        DegenerationSpec(GrassContext(1, 4), ((1, 4), (1, 1))),
    ):
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin is not value and twin == value and hash(twin) == hash(value)


def test_value_classes_compare_and_hash_by_their_fields() -> None:
    for make, other in (
        (lambda: GeneratorSpec(("x", "y"), (1, 2), 4), GeneratorSpec(("x", "y"), (1, 2), 5)),
        (lambda: GeneratorSpec(("x", "y"), (1, 2), 4), GeneratorSpec(("x", "z"), (1, 2), 4)),
        (lambda: GeneratorSpec(("x", "y"), (1, 2), 4), GeneratorSpec(("x", "y"), (1, 1), 4)),
        (lambda: Partition((2, 1, 0)), Partition((2,))),
        (lambda: GrassContext(1, 4), GrassContext(2, 4)),
        (lambda: GrassContext(1, 4), GrassContext(1, 5)),
        (lambda: DegenerationSpec(GrassContext(1, 4), ((1, 4), (1, 1))),
         DegenerationSpec(GrassContext(1, 3), ((1, 4), (1, 1)))),
        (lambda: DegenerationSpec(GrassContext(1, 4), ((1, 4), (1, 1))),
         DegenerationSpec(GrassContext(1, 4), ((1, 1), (1, 4)))),
    ):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != other and not a == other
        assert a != object()
    assert Partition((2, 1, 0)).parts == (2, 1) and Partition((2, 1)) != (2, 1)
    assert len({GrassContext(1, 4), GrassContext(1, 4), GrassContext(2, 5)}) == 2


def test_caches_and_derived_attributes_stay_out_of_equality_hash_and_repr() -> None:
    warm, cold = GrassContext(1, 4), GrassContext(1, 4)
    bundle = bundles.sym_ustar(warm, 5)
    assert integrate(warm, bundle.chern(bundle.rank)) == 2875
    assert warm._schubert_memo and not cold._schubert_memo
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold) == "GrassContext(r=1, n=4)"
    assert repr(Partition((2, 1))) == "Partition(parts=(2, 1))"
    assert repr(DegenerationSpec(warm, ((1, 4), (1, 1)))) == (
        "DegenerationSpec(context=GrassContext(r=1, n=4), pieces=((1, 4), (1, 1)))"
    )
    spec, twin = root_spec(2, 3), root_spec(2, 3)
    roots_to_e(GradedPoly.one(spec))
    assert spec._e_tables is not None and twin._e_tables is None
    assert spec == twin and hash(spec) == hash(twin)
    assert repr(spec) == "GeneratorSpec(names=('t1', 't2'), degrees=(1, 1), truncation=3)"


def test_contexts_built_apart_share_one_cache_entry() -> None:
    bundles.sym_ustar.cache_clear()
    first = bundles.sym_ustar(GrassContext(1, 4), 2)
    hits = bundles.sym_ustar.cache_info().hits
    assert bundles.sym_ustar(GrassContext(1, 4), 2) is first
    assert bundles.sym_ustar.cache_info().hits == hits + 1


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: GeneratorSpec(("x", "y"), (1,), 2), ValueError,
         "names and degrees must have equal length"),
        (lambda: GeneratorSpec(("x", "x"), (1, 1), 2), ValueError,
         "generator names must be distinct"),
        (lambda: GeneratorSpec(("1x",), (1,), 2), ValueError, "invalid generator name '1x'"),
        (lambda: GeneratorSpec(("x",), (0,), 2), ValueError, "generator degrees must be positive"),
        (lambda: GeneratorSpec(("x",), (1,), -1), ValueError,
         "truncation must be a non-negative integer"),
        (lambda: GeneratorSpec(("x",), (1.0,), 2), ValueError,
         "generator degree 1.0 is not an integer"),
        (lambda: GeneratorSpec(("x",), (1,), True), ValueError,
         "truncation True is not an integer"),
        (lambda: Partition((1, -1)), ValueError, "negative part in (1, -1)"),
        (lambda: Partition((1, 2)), ValueError, "parts must be weakly decreasing: (1, 2)"),
        (lambda: Partition((2.0,)), ValueError, "partition part 2.0 is not an integer"),
        (lambda: GrassContext(2, 2), ValueError, "need 0 <= r < n, got r=2, n=2"),
        (lambda: GrassContext(-1, 3), ValueError, "need 0 <= r < n, got r=-1, n=3"),
        (lambda: GrassContext(1.0, 3), ValueError, "r 1.0 is not an integer"),
        (lambda: GrassContext(-1, 3.0), ValueError, "n 3.0 is not an integer"),
        (lambda: DegenerationSpec((1, 4), ((1, 4), (1, 1))), TypeError,
         "context must be a GrassContext"),
        (lambda: DegenerationSpec(GrassContext(1, 4), ((5, 1),)), ValueError,
         "exactly two pieces are supported"),
        (lambda: DegenerationSpec(GrassContext(1, 4), ((0, 1), (1, 1))), ValueError,
         "piece degrees and multiplicities must be >= 1, got (0, 1)"),
        (lambda: DegenerationSpec(GrassContext(1, 4), ((1.5, 1), (1, 1))), ValueError,
         "piece degree 1.5 is not an integer"),
        (lambda: DegenerationSpec(GrassContext(1, 4), ((1, True), (1, 1))), ValueError,
         "piece multiplicity True is not an integer"),
        (lambda: IntersectionSetup(_p2_setup().cN, 0), ValueError,
         "codimension d must be a positive integer, got 0"),
        (lambda: IntersectionSetup(_p2_setup().cN, 2.0), ValueError,
         "codimension d 2.0 is not an integer"),
        (lambda: IntersectionSetup(projective_space(2).parse("2 + h"), 2), ValueError,
         "c(N) must have constant term 1, got 2"),
    ],
)
def test_validation_keeps_its_error_and_message(make, error, message) -> None:
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error
    assert str(raised.value) == message
