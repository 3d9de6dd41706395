"""Value semantics of the package's value and report classes: equality
within a class, the hash of the field tuple, reprs, immutability, copies
and pickles (see goldenring._value)."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

import goldenring as gr
from goldenring._value import Value, set_field
from goldenring.dimension import _ValueTable, _value_table
from goldenring.mpoly import count_monomials
from goldenring.quads import max_size_for_degree
from goldenring.ringalg import _GRADINGS, IdealSpec, _Grading
from goldenring.sequences import XiCertificate

# each class with its fields, in constructor order
FIELDS = {
    gr.BiDegree: ("d1", "d2"),
    gr.GoldenInt: ("m", "n"),
    gr.GoldenRational: ("num", "den"),
    gr.RationalInterval: ("lo", "hi"),
    gr.Quad: ("i", "a", "b", "c"),
    gr.PartitionClass: ("kind", "band"),
    gr.SymTriple: ("x0", "x1", "x2"),
    gr.TransitionMatrix: ("a11", "a12", "a21", "a22"),
    gr.Seed: ("x1", "x2", "M"),
    XiCertificate: ("p", "q", "p_next", "d"),
    gr.TripleSystem: ("seed", "K"),
    IdealSpec: ("generators",),
    _Grading: ("label", "blocks", "closed", "elements", "maximal_quad"),
    gr.BasisMonomial: ("alpha", "j", "quad", "exponents", "poly"),
    gr.BasisReport: ("bound", "ideal_rank", "cardinality", "combined_rank", "dependency"),
    gr.ReducedElement: ("bound", "coords", "family"),
    gr.LeadingForm: ("alpha", "coefficients"),
    gr.DimensionReport: ("d", "delta", "contributing"),
    _ValueTable: ("quads", "order", "values", "prefix"),
    gr.ScalingRow: ("d", "fraction", "dim"),
    gr.ScalingReport: ("rows",),
    gr.VerificationReport: ("K", "e4_dets", "e1_exponents", "e2_first", "e2_second", "xi",
                            "theta"),
}

# each report's attributes that are derived from its fields, not stored
DERIVED = {
    gr.BasisReport: ("ambient_dim", "quotient_dim", "expected_dim", "quotient_rank", "spans"),
    gr.LeadingForm: ("size",),
    gr.DimensionReport: ("dim", "scale", "ratio", "ratio_upper"),
    gr.ScalingRow: ("delta", "ratio", "ratio_upper"),
    gr.ScalingReport: ("ratio_low", "ratio_high", "upper_low", "upper_high"),
    gr.VerificationReport: ("dets_ok", "recurrence_ok", "e4_abs_constant",
                            "theta_excludes_zero"),
}


@pytest.fixture(scope="module")
def instances(seeds3):
    """One instance of each class in FIELDS, as the package builds it."""
    seed = seeds3[0]
    M = seed.M
    system = gr.generate_system(seed, K=8)
    x0 = gr.MPoly.variable(gr.VARS_BASE, gr.VARS_BASE[0])
    scaling = gr.scaling_report()
    built = [
        gr.BiDegree(2, 3),
        gr.GoldenInt(3, -2),
        gr.GoldenRational(gr.GoldenInt(1, 1), 2),
        gr.RationalInterval(Fraction(1, 3), Fraction(1, 2)),
        gr.Quad(1, 2, 0, 1),
        gr.PartitionClass("band", 2),
        gr.SymTriple(2, 1, 1),
        M,
        seed,
        system.certificate,
        system,
        gr.evaluation_ideal("plain", M),
        _GRADINGS["total"],
        gr.basis_family(2, M)[3],
        gr.check_basis_rank(2, M),
        gr.quotient_coordinates(x0 * x0, 2, M),
        gr.leading_form(x0 * x0, 2, M),
        gr.growth_dimension(3, 2),
        _value_table(3),
        scaling.rows[0],
        scaling,
        gr.verify_system(system),
    ]
    assert [type(x) for x in built] == list(FIELDS)
    return built


def _values(x):
    return tuple(getattr(x, name) for name in FIELDS[type(x)])


def _other_class_twin(x):
    """An instance of a subclass of x's class with x's field values."""
    twin = object.__new__(type("Twin", (type(x),), {}))
    for name, value in zip(FIELDS[type(x)], _values(x)):
        set_field(twin, name, value)
    return twin


def test_every_value_class_is_listed():
    # the 22 classes are every subclass of the base
    assert set(Value.__subclasses__()) == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_are_the_constructor_signature(cls):
    assert cls._fields == FIELDS[cls]
    assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]


def test_equality_is_field_by_field_within_one_class(instances):
    for x in instances:
        fresh = type(x)(*_values(x))
        assert fresh is not x and fresh == x and not fresh != x
        twin = _other_class_twin(x)
        assert x.__eq__(twin) is NotImplemented and x != twin and twin != x
        assert x != _values(x)  # not a tuple
    # one field differs
    assert gr.GoldenInt(3, -2) != gr.GoldenInt(3, -1)
    assert gr.PartitionClass("band", 2) != gr.PartitionClass("band", 3)
    assert gr.Quad(1, 2, 0, 1) != gr.Quad(1, 2, 1, 0)


def test_hash_is_the_hash_of_the_field_tuple(instances):
    for x in instances:
        try:
            expected = hash(_values(x))
        except TypeError:  # an MPoly or a list field: unhashable, as the tuple is
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == expected
    assert {gr.GoldenInt(1, 0), gr.GoldenInt(1, 0), gr.GoldenInt(0, 1)} == {
        gr.GoldenInt(0, 1), gr.GoldenInt(1, 0)}


def test_reprs(seeds3):
    # 5,001 digits, past the default int-digit limit of 4,300
    big, text = 10**5000 + 1, "1" + "0" * 4999 + "1"
    assert repr(gr.SymTriple(big, -big, 0)) == f"SymTriple(x0={text}, x1=-{text}, x2=0)"
    assert repr(gr.GoldenInt(3, -2)) == "GoldenInt(m=3, n=-2)"
    assert repr(gr.PartitionClass("zero")) == "PartitionClass(kind='zero', band=None)"
    assert repr(gr.GoldenRational(gr.GoldenInt(1, 1), 2)) == (
        "GoldenRational(num=GoldenInt(m=1, n=1), den=2)")
    assert repr(gr.RationalInterval(Fraction(1, 3), 1)) == (
        "RationalInterval(lo=Fraction(1, 3), hi=Fraction(1, 1))")
    assert repr(gr.Quad(1, 2, 0, 1)) == "Quad(i=1, a=2, b=0, c=1)"
    seed = seeds3[0]
    assert repr(seed) == (
        "Seed(x1=SymTriple(x0=-1, x1=-1, x2=-2), x2=SymTriple(x0=-2, x1=-1, x2=-1),"
        " M=TransitionMatrix(a11=-3, a12=1, a21=-1, a22=0))")
    assert repr(gr.generate_system(seed, K=5)) == f"TripleSystem(seed={seed!r}, K=5)"


def test_assignment_and_deletion_raise(instances):
    for x in instances:
        for name in (FIELDS[type(x)][0], *DERIVED.get(type(x), ()), "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)


def test_copies_and_pickles_are_equal(instances):
    for x in instances:
        copies = [copy.copy(x), copy.deepcopy(x)]
        if type(x) is not _Grading:  # its callables are lambdas, which do not pickle
            copies.append(pickle.loads(pickle.dumps(x)))
        for c in copies:
            assert type(c) is type(x) and c == x


def _deficient_report(matrix, monkeypatch):
    """`check_basis_rank(2, matrix)` for a family whose last member is
    3 * (member 1) plus an ideal generator, in a ring dropped on return
    (as in tests/test_ringalg.py::test_deficient_family_yields_dependency)."""
    real = gr.ringalg.basis_family
    generator = gr.evaluation_ideal("plain", matrix).generators[0]

    def deficient(bound, matrix):
        family = real(bound, matrix)
        last = family[-1]
        family[-1] = gr.BasisMonomial(last.alpha, last.j, last.quad, last.exponents,
                                      family[1].poly * 3 + generator)
        return family

    with monkeypatch.context() as patch:
        patch.setattr(gr.ringalg, "_RING", None)
        patch.setattr(gr.ringalg, "basis_family", deficient)
        return gr.check_basis_rank(2, matrix)


def _derived(x):
    return {name: getattr(x, name) for name in DERIVED[type(x)]}


def test_reports_derive_from_their_fields(instances, matrix, monkeypatch):
    # a report rebuilt from its fields alone derives every other value, and
    # its summary, as the report its producer built
    reports = [x for x in instances if type(x) in DERIVED]
    assert [type(x) for x in reports] == list(DERIVED)
    deficient = _deficient_report(matrix, monkeypatch)
    for x in (*reports, deficient):
        rebuilt = type(x)(*_values(x))
        assert _derived(rebuilt) == _derived(x), type(x).__name__
        if hasattr(x, "summary"):
            assert rebuilt.summary() == x.summary()
    # the derived values themselves, against counts made here
    basis, lead, dimension, row, scaling, verification = reports
    assert (basis.ambient_dim, basis.expected_dim) == (count_monomials(7, 2), 25)
    assert basis.spans and basis.quotient_dim == basis.quotient_rank == basis.cardinality == 25
    assert not deficient.spans and deficient.quotient_dim == deficient.expected_dim == 25
    assert deficient.quotient_rank == deficient.cardinality - 1 == 24
    assert len(lead.coefficients) == 2 * lead.size + 1 == 5
    assert dimension.dim == sum(  # the zero element counts, with weight 1
        2 * max_size_for_degree(alpha, 3) + 1
        for alpha in gr.elements_up_to_degree(3) if dimension.delta.compare(alpha) >= 0)
    assert row.delta == gr.GoldenRational.golden_multiple(row.fraction * row.d)
    assert scaling.ratio_low == min(r.ratio.lo for r in scaling.rows) < scaling.ratio_high
    assert verification.dets_ok and verification.recurrence_ok
    assert verification.e4_abs_constant and verification.theta_excludes_zero
    # the ambient dimension is the product over the blocks: 6 variables of
    # degree <= 2, or 3 of degree <= 2 times 3 of degree <= 2, on the distinct
    # matrices of find_seeds(4) and one with a11 = 0
    matrices = {seed.M: None for seed in gr.find_seeds(4)}
    assert len(matrices) == 8
    for M in (*matrices, gr.TransitionMatrix(0, 1, -1, 1)):
        assert gr.check_basis_rank(2, M).ambient_dim == count_monomials(7, 2) == 28
        assert gr.check_basis_rank((2, 2), M).ambient_dim == count_monomials(4, 2) ** 2 == 100


def test_triple_system_is_its_seed_and_length(seeds3, instances):
    generated = instances[list(FIELDS).index(gr.TripleSystem)]
    loaded = gr.TripleSystem.from_json(generated.to_json())
    assert generated.theta == loaded.theta and "theta" in vars(generated)
    plain = gr.TripleSystem(generated.seed, generated.K)  # only the window derived
    for system in (loaded, plain):
        assert system == generated and hash(system) == hash((generated.seed, generated.K))
    repr(plain)
    # equality, hashing and repr derive nothing
    assert set(vars(plain)) == {"seed", "K", "window"}
    assert generated != gr.TripleSystem(generated.seed, 9)
    assert generated != gr.TripleSystem(seeds3[1], generated.K)
