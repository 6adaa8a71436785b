"""Holder-norm estimation on sampled grids."""

import numpy as np
import pytest

import holder
from trigan.errors import ConfigInvalid, DegenerateJacobian


def test_quadratic_exact():
    # f(y) = y^2: |f|_inf = 1, |f'|_inf = 2, Lip(f') = 2; second-order
    # differences are exact for quadratics, so all three are recovered exactly
    y = np.linspace(0.0, 1.0, 101)
    est = holder.estimate_holder_norm(y**2, k=1, alpha=1.0)
    assert est.ck_norm == pytest.approx(2.0, abs=1e-10)
    assert est.holder_seminorm == pytest.approx(2.0, abs=1e-10)
    assert est.total == pytest.approx(4.0, abs=1e-10)


def test_linear_has_zero_seminorm():
    y = np.linspace(0.0, 1.0, 64)
    est = holder.estimate_holder_norm(3.0 * y, k=1, alpha=0.5)
    assert est.ck_norm == pytest.approx(3.0, abs=1e-12)
    assert est.holder_seminorm == pytest.approx(0.0, abs=1e-9)


def test_constant_all_orders():
    vals = np.full((17, 17), 2.5)
    est = holder.estimate_holder_norm(vals, k=2, alpha=1.0)
    assert est.ck_norm == pytest.approx(2.5, abs=1e-12)
    assert est.total == pytest.approx(2.5, abs=1e-12)


def test_alpha_scaling_of_quotient():
    # |t|^0.5 has unbounded Lipschitz quotient but alpha=0.5 quotient 1 at 0
    y = np.linspace(0.0, 1.0, 201)
    est = holder.estimate_holder_norm(np.sqrt(y), k=0, alpha=0.5)
    # sup |sqrt(s) - sqrt(t)|/|s-t|^0.5 = 1, attained against t = 0
    assert est.holder_seminorm == pytest.approx(1.0, abs=2e-2)


def test_vector_map_components():
    y = np.linspace(0.0, 1.0, 65)
    vals = np.stack([y, y**2], axis=-1)     # (m, 2) vector map on 1D grid
    est = holder.estimate_holder_norm(vals, k=1, alpha=1.0)
    assert est.ck_norm == pytest.approx(2.0, abs=1e-9)


def test_callable_input_needs_geometry():
    with pytest.raises(ConfigInvalid):
        holder.estimate_holder_norm(lambda p: p[:, 0], k=0, alpha=1.0)
    est = holder.estimate_holder_norm(lambda p: p[:, 0] * p[:, 1], k=1, alpha=1.0,
                                      dim=2, resolution=17)
    # d/dy1 (y1 y2) = y2, sup 1; mixed term bounded by 1
    assert est.ck_norm == pytest.approx(1.0, abs=1e-8)


def test_resolution_floor():
    with pytest.raises(ConfigInvalid, match=r"resolution 3 < k \+ 2 = 4"):
        holder.estimate_holder_norm(np.array([0.0, 1.0, 2.0]), k=2, alpha=0.5)


def test_bad_alpha_and_k():
    y = np.linspace(0.0, 1.0, 16)
    with pytest.raises(ConfigInvalid):
        holder.estimate_holder_norm(y, k=0, alpha=0.0)
    with pytest.raises(ConfigInvalid):
        holder.estimate_holder_norm(y, k=-1, alpha=0.5)


def test_inverse_lipschitz_bound():
    # d! c1^(d-1) / jac_inf
    assert holder.inverse_lipschitz_bound(3.0, 0.5, 2) == pytest.approx(12.0)
    assert holder.inverse_lipschitz_bound(5.0, 2.0, 1) == pytest.approx(0.5)
    with pytest.raises(DegenerateJacobian):
        holder.inverse_lipschitz_bound(1.0, 0.0, 1)


def test_grid_values_shape():
    out = holder.grid_values_of_map(lambda p: np.stack([p[:, 0], p[:, 1]], axis=1),
                                    dim=2, resolution=5)
    assert out.shape == (5, 5, 2)
