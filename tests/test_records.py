"""The records the library returns are NamedTuples: their fields, repr text,
immutability, pickling, and the three that derive or cache on a subclass."""

import pickle
from fractions import Fraction

import pytest

from ghost_slopes import DomainError, GhostContext, WeightPoint
from ghost_slopes.distribution import DistributionSample, MomentReport, SampleKind, sample, weyl_moments
from ghost_slopes.errors import ConfigError
from ghost_slopes.ghost import DimensionTriple, GhostPolynomial, dimensions, ghost_polynomial
from ghost_slopes.polygon import RationalPolygon, newton_polygon_at
from ghost_slopes.prediction import PredictionModel, build_model
from ghost_slopes.slopes import DerivativePolygon, ThresholdVector, derivative_polygon, k_thresholds


def records():
    """(class, one instance, its fields, its repr) for each record, on (7,2,1) at k = 24."""
    ctx = GhostContext(7, 2, 1)
    moments = [(k, sample(ctx, k, SampleKind.DERIVATIVE).moments(2)) for k in (24, 30, 36)]
    return [
        (DimensionTriple, dimensions(ctx, 24), ("d_iw", "d_ur", "d_new"),
         "DimensionTriple(d_iw=8, d_ur=1, d_new=6)"),
        (WeightPoint, WeightPoint(24, Fraction(5, 2)), ("anchor", "radius"),
         "WeightPoint(anchor=24, radius=Valuation(5/2))"),
        (GhostPolynomial, ghost_polynomial(ctx, 2), ("n", "zeros"),
         "GhostPolynomial(n=2, zeros=((12, 1), (18, 1), (24, 1), (30, 1)))"),
        # the derived constants and the caches are attributes, not fields, and the repr drops them
        (GhostContext, ctx, ("p", "a", "s_eps", "global_mult", "mode"),
         "GhostContext(p=7, a=2, s_eps=1, global_mult=1, mode='exploratory')"),
        (RationalPolygon, newton_polygon_at(ctx, 8, WeightPoint(24, 10)), ("den", "hull"),
         "RationalPolygon(den=1, hull=((0, 0), (1, 1), (7, 67), (8, 89)))"),
        (DerivativePolygon, derivative_polygon(ctx, 24), ("k", "ys", "gaps", "M_index", "m_of_k"),
         "DerivativePolygon(k=24, ys=array('q', [34, 38, 50, 68]), gaps=array('q'), M_index=2, m_of_k=2)"),
        (ThresholdVector, k_thresholds(ctx, 24), ("k", "closed", "swept", "global_mult"),
         "ThresholdVector(k=24, closed=((6, 1, 1), (9, 1, 1)), swept=(Fraction(2, 1), Fraction(1, 1)), "
         "global_mult=1)"),
        (PredictionModel, build_model(ctx, 24), ("k", "d", "closed", "global_mult", "R"),
         "PredictionModel(k=24, d=6, closed=((6, 1, 1), (9, 1, 1)), global_mult=1, R=Fraction(11, 4))"),
        (DistributionSample, sample(ctx, 24, SampleKind.THRESHOLD), ("k", "kind", "nums", "mults", "den"),
         "DistributionSample(k=24, kind=<SampleKind.THRESHOLD: 'threshold'>, nums=(16, 32, 96, 144), "
         "mults=(1, 1, 2, 2), den=144)"),
        (MomentReport, weyl_moments(moments)[1], ("n", "ks", "moments", "target", "final_error", "trend_monotone"),
         "MomentReport(n=2, ks=(24, 30, 36), moments=(Fraction(121, 243), Fraction(1036, 2025), "
         "Fraction(248, 729)), target=Fraction(1, 3), final_error=Fraction(5, 729), trend_monotone=True)"),
    ]


RECORDS = records()
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, record, fields, text", RECORDS, ids=IDS)
def test_record_fields_repr_and_immutability(cls, record, fields, text):
    # the fields and repr text the frozen dataclasses had; a field cannot be assigned
    assert type(record) is cls and isinstance(record, tuple)
    assert cls._fields == fields
    assert repr(record) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert record._replace() == record


@pytest.mark.parametrize("cls, record, fields, text", RECORDS, ids=IDS)
def test_record_survives_pickle(cls, record, fields, text):
    # dist --jobs 2 ships DistributionSamples back from its workers
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record and repr(back) == text


def test_pickled_derivative_polygon_keeps_its_arrays():
    dp = derivative_polygon(GhostContext(7, 2, 1), 366)
    back = pickle.loads(pickle.dumps(dp))
    assert (back.ys.typecode, back.gaps.typecode) == ("q", "q")
    assert (back.ys, back.gaps, back.edges) == (dp.ys, dp.gaps, dp.edges)


def test_context_copy_is_equal_with_empty_caches():
    ctx = GhostContext(11, 6, 9, 3, "strict")
    k_thresholds(ctx, 1006)
    assert set(ctx._caches) == {"derivative", "periods"}
    cold = GhostContext(*ctx)
    assert cold == ctx and hash(cold) == hash(ctx) and cold is not ctx
    assert cold._caches == {}
    assert (cold.k_eps, cold.delta_eps, cold.t1, cold.t2) == (ctx.k_eps, ctx.delta_eps, ctx.t1, ctx.t2)
    back = pickle.loads(pickle.dumps(GhostContext(7, 2, 1)))
    assert (back.k_eps, back.delta_eps, back.t1, back.t2, back._caches) == (6, 0, 1, 5, {})


def test_replace_validates_and_derives():
    # _replace builds through the validating constructor, never around it
    ctx = GhostContext(7, 2, 1)
    other = ctx._replace(a=1, s_eps=0)
    assert (other.k_eps, other._caches) == (GhostContext(7, 1, 0).k_eps, {})
    with pytest.raises(ConfigError, match="a must satisfy"):
        ctx._replace(a=6)
    w = WeightPoint(24, 3)._replace(radius=Fraction(1, 2))
    assert w.radius.value == Fraction(1, 2)
    with pytest.raises(DomainError, match="radius must be >= 0"):
        w._replace(radius=-1)


def test_derivative_edges_are_read_once():
    # dist and big-weight read a polygon's edges several times per weight
    dp = derivative_polygon(GhostContext(7, 2, 1), 366)
    assert "edges" not in vars(dp)
    assert dp.edges is dp.edges and vars(dp) == {"edges": dp.edges}
