"""The library's value types are immutable tuples that survive pickling.

Plain records (RunConfig, BoundReport, the learning results, TriangularMap,
PushforwardDensity) are NamedTuples; the types that check or derive fields
when they are built (GridDensity, TableComponent, the Bernstein components,
HypothesisConfig, TrainingSample) are NamedTuple subclasses whose __new__
does it. A process pool pickles maps, samples and configs to its workers.
"""

import json
import pickle

import numpy as np
import pytest

import trigan.bounds as bd
import trigan.cli as cli
import trigan.density as dn
import trigan.hypothesis as hyp
import trigan.learning as lr
import trigan.rosenblatt as ros
from trigan.errors import ConfigInvalid

HYP = {"dim": 1, "k": 3, "alpha": 0.5, "K": 2.0,
       "family": "bernstein_triangular", "degree": 2, "coupling_degree": 1}


@pytest.fixture(scope="module")
def records():
    target = dn.make_density("coupled", resolution=9)
    cfg1 = hyp.config_from_dict(HYP)
    net1 = hyp.build_eps_net(cfg1, 0.1)
    cfg3 = hyp.make_config(2, K=3.0, degree=3)
    stack = hyp.make_generator(cfg3, hyp.build_eps_net(cfg3, 1.0)[:3])
    sample = lr.make_training_sample(target, 16, seed=1)
    uniform = dn.make_density("uniform", dim=1, resolution=33)
    rate = lr.rate_experiment(cfg1, uniform, [8, 16], 2, 1, net=net1)
    table = ros.build_rosenblatt(target)
    quad = hyp.make_generator(cfg1, net1[0])
    return {
        # keyed by type name; "stack" is a second TriangularMap, of Bernstein members
        "RunConfig": cli.build_run_config("bounds", {"hypothesis": HYP, "n": 10}, {}),
        "BoundReport": bd.bound_report(1, 0.5, 3, 2.0, 64),
        "MinimaxResult": lr.minimax_fit(cfg1, uniform, lr.make_training_sample(
            uniform, 16, seed=2), net=net1),
        "RateRow": rate.rows[0],
        "RateReport": rate,
        "TriangularMap": table,
        "PushforwardDensity": ros.PushforwardDensity(stack),
        "GridDensity": target,
        "TableComponent": table.components[1],
        "BernsteinComponent": stack.components[1],
        "_QuadBernstein": quad.components[0],
        "HypothesisConfig": cfg3,
        "TrainingSample": sample,
        "stack": stack,
    }


def test_no_field_can_be_rebound(records):
    for name, obj in records.items():
        for field in type(obj)._fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            obj.extra = 1      # no instance dict either
    with pytest.raises(AttributeError):
        records["GridDensity"].kappa = 0.0


def _same_fields(a, b):
    """a and b have one type and equal fields, nested records included."""
    assert type(a) is type(b)
    for x, y in zip(a, b, strict=True):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y) and x.dtype == y.dtype
        elif isinstance(x, tuple):
            _same_fields(x, y)
        else:
            assert x == y


def test_pickle_round_trips(records):
    stack, sample, cfg = records["stack"], records["TrainingSample"], records["HypothesisConfig"]
    for obj in (stack, records["TriangularMap"], sample, cfg):
        _same_fields(obj, pickle.loads(pickle.dumps(obj)))
    # the stack's blocks and the sample's points come back read-only
    again = pickle.loads(pickle.dumps(stack))
    assert not any(arr.flags.writeable for comp in again.components for arr in comp[1:])
    assert not any(arr.flags.writeable for arr in pickle.loads(pickle.dumps(sample)))
    pts = np.random.default_rng(5).random((64, 2))
    assert np.array_equal(again.apply(pts), stack.apply(pts))
    assert np.array_equal(ros.PushforwardDensity(again).evaluate(pts),
                          ros.PushforwardDensity(stack).evaluate(pts))


def test_hypothesis_config_is_a_hashable_value(records):
    cfg = records["HypothesisConfig"]
    payload = {field: getattr(cfg, field) for field in cfg._fields if field != "box_half"}
    again = hyp.config_from_dict(json.loads(json.dumps(payload)))
    assert again == cfg and hash(again) == hash(cfg) and {cfg: 1}[again] == 1
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    # _replace builds through the checks, as the constructor does
    with pytest.raises(ConfigInvalid):
        cfg._replace(K=0.5)
