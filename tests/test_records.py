"""Value semantics shared by every record the package defines: frozen
fields, == and hash over the public fields, repr, pickling, keyword
construction and replace."""

import pickle

import pytest

from steinerchains import (
    Gauge,
    Orientation,
    OrientedCircle,
    PlanePoint,
    actual_moments,
    axial_bends_n6,
    axial_triples_n3_printed,
    chain_at_phase,
    chain_residuals,
    concentric_model,
    feasibility_check,
    first_two_moments_general,
    invariance_sweep,
    moment_set,
    poristic_range,
    validate_gauge,
    virtual_gauge,
    yiu_coefficients,
)
from steinerchains.geometry import _Record

G = Gauge.from_radii(4, 6.0, 1.0)
CHAIN = chain_at_phase(G, 0.0)


def samples():
    """One record of each class, as the library builds them."""
    I1, I2, _ = actual_moments(CHAIN.radii)
    return [
        PlanePoint(1.0, -2.0),
        OrientedCircle(PlanePoint(0.5, 0.0), 2.0, Orientation.OUTER_PARENT),
        G,
        poristic_range(G),
        validate_gauge(G),
        CHAIN,
        concentric_model(G),
        chain_residuals(CHAIN),
        yiu_coefficients(G, 2.5),
        moment_set(CHAIN),
        first_two_moments_general(G)[2],
        invariance_sweep(G, 3),
        virtual_gauge(I1, I2),
        feasibility_check(CHAIN.radii, "constructive"),
        axial_triples_n3_printed(Gauge.from_radii(3, 15.0, 1.0)),
        axial_bends_n6(Gauge.from_radii(6, 9.0, 1.0)),
    ]


SAMPLES = samples()


def fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record)._fields}


def hidden(record) -> list[str]:
    return [name for name in type(record).__slots__ if name not in type(record)._fields]


def bypassing_init(cls, values: dict):
    """A record of cls holding values, built without __init__'s checks."""
    record = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(record, name, value)
    return record


def test_every_record_class_is_sampled():
    assert len(SAMPLES) == 16
    assert {type(s) for s in SAMPLES} == set(_Record.__subclasses__())


@pytest.mark.parametrize("record", SAMPLES, ids=lambda s: type(s).__name__)
class TestRecordSemantics:
    def test_fields_cannot_be_assigned_or_deleted(self, record):
        before = fields(record)
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = None
        assert fields(record) == before

    def test_keyword_construction(self, record):
        cls = type(record)
        rebuilt = cls(**fields(record))
        assert type(rebuilt) is cls and rebuilt == record
        assert cls(*fields(record).values()) == rebuilt

    def test_eq_hash_and_repr_read_the_public_fields_only(self, record):
        twin = type(record)(**fields(record))
        for name in hidden(record):
            object.__setattr__(twin, name, "a hidden value")
        assert twin == record and repr(twin) == repr(record)
        try:
            expected = hash(record)
        except TypeError:  # a record holding a dict is unhashable, as the dict is
            assert any(isinstance(v, dict) for v in fields(record).values())
        else:
            assert hash(twin) == expected == hash(tuple(fields(record).values()))
        for name in type(record)._fields:
            assert bypassing_init(type(record), {**fields(record), name: "changed"}) != record

    def test_another_class_with_equal_values_is_unequal(self, record):
        class Twin(type(record)):
            __slots__ = ()

        assert Twin(**fields(record)) != record
        assert record != tuple(fields(record).values())

    def test_pickle_round_trips(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record
        assert repr(back) == repr(record)

    def test_replace_copies_and_refuses_unknown_fields(self, record):
        name = type(record)._fields[-1]
        value = getattr(record, name)
        assert record.replace() == record
        assert record.replace(**{name: value}) == record
        with pytest.raises(TypeError):
            record.replace(no_such_field=1)


def test_replace_reruns_the_checks():
    with pytest.raises(ValueError, match="radius must be positive"):
        OrientedCircle(PlanePoint(0.0, 0.0), 1.0).replace(radius=-1.0)


def test_default_orientation():
    circle = OrientedCircle(center=PlanePoint(x=0.0, y=0.0), radius=2.0)
    assert circle.orientation is Orientation.CHAIN_OR_INNER and circle.bend == 0.5


def test_circles_are_built_once_and_survive_pickling():
    chain = chain_at_phase(G, 0.3)
    assert chain.circles is chain.circles
    assert pickle.loads(pickle.dumps(chain)).circles == chain.circles


def test_repr_strings():
    assert repr(G) == "Gauge(n=4, R=6.0, r=1.0, d=1.0000000000000036)"
    assert repr(poristic_range(G)) == (
        "PoristicRange(r_min=1.9999999999999982, r_max=3.0000000000000018, "
        "b_min=0.33333333333333315, b_max=0.5000000000000004)"
    )
    assert repr(validate_gauge(G)) == "GaugeValidation(ok=True, pedoe_residual=0.0, message='ok')"
    assert repr(chain_residuals(CHAIN)) == (
        "ChainResiduals(adjacent=0.0, inner=4.440892098500626e-16, outer=0.0, "
        "range_excess=0.0, limit=6.000000000000001e-09)"
    )
    assert repr(feasibility_check(CHAIN.radii, "constructive")) == (
        "FeasibilityReport(radii=(3.0000000000000018, 2.3999999999999995, "
        "1.9999999999999982, 2.3999999999999995), mode='constructive', "
        "actual_moments=(1.6666666666666672, 0.7083333333333337, 0.3067129629629633), "
        "virtual_curvatures=(1.0000000000000002, -0.16666666666666663), "
        "virtual_gauge=(6.000000000000002, 0.9999999999999998, 1.0000000000000069), "
        "range_check=(True, True, True, True), relation_residual=1.6653345369377348e-16, "
        "adjacency_check=(True, True, True, True), feasible=True, reasons=())"
    )
    assert repr(OrientedCircle(PlanePoint(1.0, 2.0), 3.0)) == (
        "OrientedCircle(center=PlanePoint(x=1.0, y=2.0), radius=3.0, "
        "orientation=<Orientation.CHAIN_OR_INNER: 'chain_or_inner'>)"
    )
