import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safecascade import cascade
from safecascade.cascade import (
    ESTIMATE_BLOCK_STATES,
    CascadeController,
    CascadeGains,
    SafetyLaw,
    estimate_lipschitz,
    gain_ledger,
    k_selection_audit,
    small_gain_audit,
    tracking_law,
)
from safecascade.certificates import CertificateSpec, Disc, Segment, eval_segment, exp_alpha_bar_for_level
from safecascade.errors import (
    CoverageConditionError,
    SafecascadeError,
    SelectionConditionError,
    ZeroGradientError,
)
from safecascade.qcqp_safety import (
    PlantBounds,
    RateSpec,
    build_constraint_set,
    disc_constraint_set,
    lipschitz_selection,
)
from safecascade.qp_solver import PolygonRows, Polyhedron, solve_projection_qp
from safecascade.reshaping import PositiveBasis, make_positive_basis, reshape_b_l
from safecascade.scenario import build_scenario, estimate_safety_law_lipschitz, load_scenario

from helpers import assert_same_bits, bundled_config
from oracles import ledger_products

UNIT_BOUNDS = PlantBounds(g_lower=1.0, delta_upper=0.0)
STOCK_GAINS = CascadeGains(tracking_slopes=(8.0, 320.0, 4.0e5), k1=3.49)
FLAT_GAINS = CascadeGains(tracking_slopes=(8.0, 8.0, 8.0), k1=3.49)

WALLS = [
    CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
    CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35),
]

# Frozen from the arithmetic below; the level-2 value is recorded under the
# reading that the self-channel at level 2 carries the estimated outer
# constant, with no pass expectation attached.
EXPECTED_MARGINS = {2: -0.203833125, 3: 59.58483, 4: 28319.5292}

# Frozen grid estimate of the outer safety law's Lipschitz constant over the
# stock workspace box at the default 200-point grid.
FROZEN_K1_GRID_ESTIMATE = 6.3408


# ------------------------------------------------------------ tracking law

def test_tracking_law_identity_reduction():
    e = np.array([0.3, -1.2])
    out = tracking_law(e, UNIT_BOUNDS, 5.0)
    np.testing.assert_allclose(out, -5.0 * e, atol=1e-12)


def test_tracking_law_zero_error():
    np.testing.assert_array_equal(tracking_law(np.zeros(2), UNIT_BOUNDS, 3.0), np.zeros(2))


@settings(max_examples=150, deadline=None)
@given(
    g_lower=st.floats(0.5, 3.0),
    delta_frac=st.floats(0.0, 0.8),
    slope=st.floats(0.1, 10.0),
    ex=st.floats(-3.0, 3.0),
    ey=st.floats(-3.0, 3.0),
)
def test_tracking_law_meets_row_with_equality(g_lower, delta_frac, slope, ex, ey):
    e = np.array([ex, ey])
    if np.linalg.norm(e) < 1e-6:
        e = np.array([1.0, 0.0])
    bounds = PlantBounds(g_lower=g_lower, delta_upper=delta_frac * g_lower * 0.9)
    u = tracking_law(e, bounds, slope)
    direction = e / np.linalg.norm(e)
    lhs = float(direction @ u) + bounds.norm_coefficient * float(np.linalg.norm(u))
    assert lhs == pytest.approx(-slope * float(np.linalg.norm(e)), rel=1e-9, abs=1e-9)


def test_tracking_law_positive_homogeneity():
    e = np.array([0.4, 0.9])
    base = tracking_law(e, UNIT_BOUNDS, 2.0)
    for lam in (0.5, 3.0, 11.0):
        np.testing.assert_allclose(tracking_law(lam * e, UNIT_BOUNDS, 2.0), lam * base, atol=1e-12)


def test_tracking_law_norms_match_linalg_norm_bit_for_bit():
    # The law's norm is sqrt(e . e), which is np.linalg.norm's formula for a
    # vector, and it applies the vector formula entry by entry on floats:
    # the vector formula written with np.linalg.norm gives the same bits at
    # the stock gains.
    bounds = PlantBounds(g_lower=1.0, delta_upper=0.2)
    rng = np.random.default_rng(11)
    for slope in (7.0, 8.0, 320.0, 4.0e5):
        for e in rng.normal(scale=10.0 ** rng.integers(-6, 6, size=(200, 1)), size=(200, 2)):
            scale = bounds.g_lower / (bounds.g_lower - bounds.delta_upper)
            nrm = float(np.linalg.norm(e))
            assert_same_bits(tracking_law(e, bounds, slope), -(e / nrm) * scale * slope * nrm)


def test_controller_levels_call_tracking_law_per_slope(monkeypatch):
    # Level i's input is tracking_law(x_i - x*_i, the law's bounds, K_i),
    # called through the cascade module's name (the benchmark's trace hooks
    # rebind it).
    bounds = PlantBounds(g_lower=1.0, delta_upper=0.2)
    _, abar_inv = exp_alpha_bar_for_level(1.0)
    rates = RateSpec(1.0, abar_inv, negative_ratio=bounds.gain_ratio)
    law = SafetyLaw(WALLS, np.array([0.6, 1.0]), make_positive_basis(2, 11), bounds, rates, 2.0)
    controller = CascadeController(law, STOCK_GAINS)
    rng = np.random.default_rng(5)
    blocks = [np.array([-2.0, 1.0]), *rng.normal(size=(3, 2))]
    ev = controller.evaluate(blocks)
    for i, slope in enumerate(STOCK_GAINS.tracking_slopes, start=1):
        np.testing.assert_array_equal(ev.x_stars[i],
                                      tracking_law(blocks[i] - ev.x_stars[i - 1], bounds, slope))
    seen = []
    monkeypatch.setattr(cascade, "tracking_law",
                        lambda e, b, k: seen.append((b, k)) or np.zeros(2))
    controller.evaluate(blocks)
    assert seen == [(bounds, k) for k in STOCK_GAINS.tracking_slopes]


# ----------------------------------------------------------------- ledger

def test_ledger_stock_values():
    gains = CascadeGains(tracking_slopes=(8.0, 320.0), k1=3.49)
    assert gains.kbar(2, 2) == pytest.approx(16.0)
    assert gains.kbar(1, 2) == pytest.approx(55.84)
    kbar = ledger_products({2: 8.0, 3: 320.0}, 3.49)
    ledger = gain_ledger(gains)
    for key, value in ledger.kbar_table.items():
        assert value == pytest.approx(kbar[key], rel=1e-12)


def test_ledger_empty_product_conventions():
    gains = CascadeGains(tracking_slopes=(8.0,), k1=2.0)
    assert gains.kbar(3, 2) == 0.0
    assert gains.kbar(2, 1) == 0.0
    ledger = gain_ledger(gains)
    assert len(ledger.levels) == 1
    lvl = ledger.levels[0]
    assert lvl.level == 2
    assert lvl.alpha_mid_slopes == ()
    assert lvl.alpha_rho0_slope == pytest.approx(2.0)    # kbar(1,1) = k1
    assert lvl.alpha_self_slope == pytest.approx(2.0)    # k_{i-1} at i=2 is k1


def test_ledger_doubling_scan():
    base = CascadeGains(tracking_slopes=(4.0, 10.0, 3.0), k1=1.5)
    doubled = CascadeGains(tracking_slopes=(8.0, 20.0, 6.0), k1=1.5)
    for i in range(2, 5):
        for j in range(2, i + 1):
            factor = 2.0 ** (i - j + 1)
            assert doubled.kbar(j, i) == pytest.approx(factor * base.kbar(j, i))


# ----------------------------------------------------------------- audits

def margin_oracle(k_tracking, k1, tau, theta, gamma_12, gamma_x2v):
    """Plain-loop re-derivation of the gain-selection right-hand side."""
    lip = {1: k1}
    for lvl, big_k in k_tracking.items():
        lip[lvl] = 2.0 * big_k

    def kbar(p, i):
        if p > i:
            return 0.0
        prod = 1.0
        for j in range(p, i + 1):
            prod *= lip[j]
        return prod

    margins = {}
    for i in sorted(k_tracking):
        rhs = theta + tau + kbar(1, i - 1) * tau
        rhs += kbar(1, i - 1) * gamma_x2v * (tau / gamma_12)
        for j in range(2, i):
            rhs += (kbar(j, i - 1) * k_tracking[j] + kbar(j - 1, i - 1)) * tau
        rhs += lip[i - 1]
        margins[i] = k_tracking[i] - rhs
    return margins


def test_selection_margins_match_oracle_and_signs():
    margins = {lm.level: lm.margin for lm in k_selection_audit(STOCK_GAINS)}
    oracle = margin_oracle({2: 8.0, 3: 320.0, 4: 4.0e5}, 3.49, 1.001, 0.001, 4.0, 0.25)
    for level in (2, 3, 4):
        assert margins[level] == pytest.approx(oracle[level], abs=1e-9)
        assert margins[level] == pytest.approx(EXPECTED_MARGINS[level], abs=1e-4)
    assert margins[3] > 0 and margins[4] > 0
    # Level 2 is recorded, not asserted for sign: the inequality there leans
    # on the estimated outer constant.


def test_flat_gains_fail_selection():
    margins = {lm.level: lm.margin for lm in k_selection_audit(FLAT_GAINS)}
    assert margins[3] < 0 and margins[4] < 0


def test_degenerate_two_level_condition():
    gains = CascadeGains(tracking_slopes=(5.0,), k1=0.0, tau=1.5, theta=0.25)
    [lm] = k_selection_audit(gains)
    assert lm.rhs_slope == pytest.approx(1.5 + 0.25)
    assert lm.margin == pytest.approx(5.0 - 1.75)


def test_margin_monotone_in_lower_gains():
    previous = None
    for k2 in (4.0, 8.0, 16.0, 32.0):
        gains = CascadeGains(tracking_slopes=(k2, 320.0), k1=3.49)
        margin3 = k_selection_audit(gains)[1].margin
        if previous is not None:
            assert margin3 <= previous
        previous = margin3


def test_small_gain_tracking_contraction():
    report = small_gain_audit(STOCK_GAINS)
    assert report.tracking_slope == pytest.approx(1.0 / 1.001)
    assert report.tracking_contractive
    # Composed safety loop gain pairs gamma_12 with gamma_12 / tau: slope 16/tau.
    assert report.safety_loop_slope == pytest.approx(16.0 / 1.001)
    assert not report.safety_loop_contractive


def test_small_gain_flags_tau_below_one():
    gains = CascadeGains(tracking_slopes=(8.0,), k1=1.0, tau=0.9)
    report = small_gain_audit(gains)
    assert not report.tracking_contractive
    assert report.tracking_slope > 1.0


# -------------------------------------------------------------- controller

def wall_law():
    _, abar_inv = exp_alpha_bar_for_level(1.0)
    rate = RateSpec(base_slope=1.0, alpha_bar_inverse=abar_inv)
    return SafetyLaw(WALLS, np.array([0.6, 1.0]), make_positive_basis(2, 11), UNIT_BOUNDS, rate,
                     k_phi=2.0)


def build_wall_controller(gains):
    return CascadeController(wall_law(), gains)


def test_single_level_controller_is_the_filter():
    law = wall_law()
    controller = CascadeController(rho1=law, gains=None)
    x1 = np.array([-2.0, 1.0])
    np.testing.assert_allclose(controller([x1]), law(x1), atol=1e-12)


def test_full_controller_finite_at_start():
    controller = build_wall_controller(STOCK_GAINS)
    blocks = [np.array([-2.0, 1.0]), np.zeros(2), np.zeros(2), np.zeros(2)]
    ev = controller.evaluate(blocks)
    assert np.all(np.isfinite(ev.u))
    assert len(ev.x_stars) == 4


def test_controller_eval_carries_the_outer_laws_certificate_values():
    from safecascade.certificates import certificate_value
    controller = build_wall_controller(STOCK_GAINS)
    x1 = np.array([-2.0, 1.0])
    ev = controller.evaluate([x1, np.zeros(2), np.zeros(2), np.zeros(2)])
    assert controller.rho1.certs == tuple(WALLS)
    for j, cert in enumerate(WALLS):
        cev = certificate_value(cert, x1)
        assert (ev.h[j], ev.v[j]) == (cev.h, cev.v)


def test_zero_state_composition_sign_pattern():
    # Hand recursion with linear laws: x*_{i+1} = -K_i (x_i - x*_i); with
    # all higher blocks at zero every stage contributes +K_i, so
    # u = K2 K3 K4 rho1(x1).
    controller = build_wall_controller(STOCK_GAINS)
    x1 = np.array([-2.0, 1.0])
    rho1 = controller.rho1(x1)
    blocks = [x1, np.zeros(2), np.zeros(2), np.zeros(2)]
    ev = controller.evaluate(blocks)
    hand = rho1.copy()
    for big_k in (8.0, 320.0, 4.0e5):
        hand = -big_k * (np.zeros(2) - hand)
    np.testing.assert_allclose(ev.u, hand, rtol=1e-12)
    np.testing.assert_allclose(ev.u, 8.0 * 320.0 * 4.0e5 * rho1, rtol=1e-12)


def test_two_level_closed_form():
    gains = CascadeGains(tracking_slopes=(6.0,), k1=1.0)
    controller = build_wall_controller(gains)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x1 = np.array([-2.0, 1.0]) + rng.normal(scale=0.05, size=2)
        x2 = rng.normal(size=2)
        expected = -6.0 * (x2 - controller.rho1(x1))
        np.testing.assert_allclose(controller([x1, x2]), expected, atol=1e-12)


# ---------------------------------------------------- Lipschitz estimation

def test_estimate_lipschitz_linear_map():
    est = estimate_lipschitz(lambda x: 2.0 * x, ((-1.0, 1.0), (-1.0, 1.0)), grid=50)
    assert est == pytest.approx(2.0, rel=1e-9)


def test_estimate_lipschitz_gap_blowup():
    # The raw gap filter's axis slope supremum is radius/(1 - radius); a
    # refined grid at the cap boundary approaches it from below.
    radius = 0.99
    discs = [CertificateSpec(Disc([0.0, 1.0], radius)), CertificateSpec(Disc([0.0, -1.0], radius))]

    def raw(x):
        cs = disc_constraint_set(discs, x)
        return solve_projection_qp(np.array([1.0, 0.0]), Polyhedron(cs.a, cs.b)).point

    edge = radius - 1.0
    rows = lambda states: np.array([raw(x) for x in states])
    est = estimate_lipschitz(rows, ((edge - 1e-5, edge), (0.0, 0.0)), grid=200)
    assert est >= 99.0 * (1.0 - 1e-3)


def test_wall_law_lipschitz_regression():
    est = estimate_safety_law_lipschitz(wall_law(), ((-3.0, 6.0), (-0.5, 12.0)), grid=200)
    assert est == pytest.approx(FROZEN_K1_GRID_ESTIMATE, rel=1e-3)
    # Same scale as the design value 3.49 used by the stock gain ledger.
    assert 0.5 <= est / 3.49 <= 2.0


GRID_BOX = ((-1.0, 1.0), (0.0, 2.0))


def _grid_calls(grid):
    """The estimate of a linear map of slope 3 on GRID_BOX, with the states
    of each call."""
    calls = []

    def fn(states):
        calls.append(states.copy())
        return 3.0 * states

    return estimate_lipschitz(fn, GRID_BOX, grid=grid), calls


def _assert_whole_rows_in_order(calls, grid):
    xs, ys = np.linspace(*GRID_BOX[0], grid), np.linspace(*GRID_BOX[1], grid)
    every = np.column_stack([np.repeat(xs, grid), np.tile(ys, grid)])
    np.testing.assert_array_equal(np.concatenate(calls), every)
    for states in calls:
        assert states.shape[0] % grid == 0


@pytest.mark.parametrize("grid, shapes", [
    (17, [(289, 2)]),
    (200, [(2000, 2)] * 20),
    (130, [(1950, 2)] * 8 + [(1300, 2)]),      # 15 rows a block; 130 = 8 * 15 + 10
], ids=["grid17", "grid200", "grid130_uneven"])
def test_estimate_lipschitz_calls_fn_on_blocks_of_whole_grid_rows(grid, shapes):
    # Every grid state once, rows whole and in order, at most
    # ESTIMATE_BLOCK_STATES states a call.
    assert ESTIMATE_BLOCK_STATES == 2048
    est, calls = _grid_calls(grid)
    assert [states.shape for states in calls] == shapes
    _assert_whole_rows_in_order(calls, grid)
    assert est == pytest.approx(3.0, rel=1e-9)


def test_estimate_lipschitz_keeps_one_row_a_call_when_a_row_exceeds_the_budget(monkeypatch):
    monkeypatch.setattr(cascade, "ESTIMATE_BLOCK_STATES", 10)
    est, calls = _grid_calls(17)
    assert [states.shape for states in calls] == [(17, 2)] * 17
    _assert_whole_rows_in_order(calls, 17)
    assert est == pytest.approx(3.0, rel=1e-9)


def test_blocked_estimate_equals_the_row_by_row_estimate_on_the_safe_scenario(monkeypatch):
    # The reference is the estimate as it was: one grid row a call, with the
    # segments evaluated again for the mask.
    built = build_scenario(load_scenario(bundled_config("vtol_safe")))     # k1 = 3.49, no estimate
    law, workspace = built.controller.rho1, built.workspace
    blocked = estimate_safety_law_lipschitz(law, workspace, grid=200)

    def masked_by_segments(x):
        values = np.array(law(x))
        for cert in built.certificates:
            values[eval_segment(cert, x).h < 0] = np.nan
        return values

    monkeypatch.setattr(cascade, "ESTIMATE_BLOCK_STATES", 1)
    rows = estimate_lipschitz(masked_by_segments, workspace, grid=200)
    assert blocked == rows
    assert blocked == pytest.approx(FROZEN_K1_GRID_ESTIMATE, rel=1e-3)


def _single_or_nan(law, x):
    try:
        return law(x)
    except SafecascadeError:
        return np.full(2, np.nan)


def _outer_laws():
    """Outer laws over walls, overlapping discs, and uncertain bounds (c > 0)
    with the rate steepened for them."""
    _, abar_inv = exp_alpha_bar_for_level(1.0)
    rate = RateSpec(base_slope=1.0, alpha_bar_inverse=abar_inv)
    basis = make_positive_basis(2, 11)
    nominal = np.array([0.6, 1.0])
    discs = [CertificateSpec(Disc([0.0, 6.0], 1.0)), CertificateSpec(Disc([0.8, 6.0], 1.0))]
    uncertain = PlantBounds(g_lower=1.0, delta_upper=0.1)
    return {
        "walls": SafetyLaw(WALLS, nominal, basis, UNIT_BOUNDS, rate, k_phi=2.0),
        "discs": SafetyLaw(discs, nominal, basis, UNIT_BOUNDS, rate, k_phi=1.0),
        "uncertain": SafetyLaw(WALLS, nominal, basis, uncertain,
                               RateSpec(1.0, abar_inv, negative_ratio=uncertain.gain_ratio), k_phi=2.0),
    }


def _outer_law_states(seed):
    """Seeded states on the spines (exactly and 1e-6 m off), in the
    inflated bands, in the far field, at a disc center and between the
    overlapping discs, plus a grid over the workspace."""
    rng = np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.linspace(-3.0, 6.0, 31), np.linspace(-0.5, 12.0, 31))
    grid = np.column_stack([xs.ravel(), ys.ravel()])
    spine_t = rng.uniform(0.0, 1.0, size=(40, 1))
    spines = []
    for cert in WALLS:
        seg = cert.geometry
        normal = np.array([-seg.base[1], seg.base[0]]) / np.linalg.norm(seg.base)
        on = seg.o1 + spine_t * seg.base
        spines += [on, on + 1e-6 * normal, on - 1e-6 * normal,
                   on + rng.uniform(-0.35, 0.35, size=(40, 1)) * normal]
    return np.vstack([
        grid, *spines,
        rng.uniform([-3.0, -0.5], [6.0, 12.0], size=(300, 2)),
        rng.uniform([-1.2, 4.8], [2.0, 7.2], size=(300, 2)),
        [[0.0, 25.0], [0.0, 100.0], [-60.0, 40.0], [0.0, 6.0], [0.8, 6.0], [0.4, 6.0]],
    ])


def test_batched_law_matches_single_state_law():
    # One array call over many states against one call per state: NaN rows
    # exactly where the single state raises a package error, and the same
    # inputs elsewhere. Covers the spine (exactly on it and 1e-6 m off it),
    # the inflated bands, the far field, a disc center and an overlapping
    # disc pair (selection-condition failures).
    laws = _outer_laws()
    states = _outer_law_states(8675309)
    for name, law in laws.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = law(states)
            single = np.array([_single_or_nan(law, x) for x in states])
        assert batch.shape == states.shape
        undefined = np.isnan(single).any(axis=1)
        assert undefined.any(), name
        np.testing.assert_array_equal(np.isnan(batch).any(axis=1), undefined, err_msg=name)
        np.testing.assert_allclose(batch[~undefined], single[~undefined], rtol=0.0, atol=1e-12,
                                   err_msg=name)
    # The far field passes the nominal through (the rows are the unit
    # gradient of h, whatever the scale of grad V = -V grad h).
    np.testing.assert_array_equal(laws["walls"](np.array([[0.0, 25.0], [0.0, 100.0]])),
                                  [[0.6, 1.0], [0.6, 1.0]])


def _composed(law, x):
    """The law rebuilt from the public functions, which derive every
    constant the law keeps on each call."""
    nominal = np.broadcast_to(law.nominal, np.shape(x))
    cs = build_constraint_set(x, law.certs, law.bounds, law.rates)
    b_l = reshape_b_l(lipschitz_selection(cs), cs, law.basis, law.k_phi)
    return PolygonRows(law.basis.a_l).project(nominal, b_l), cs.h, cs.v


def _assert_same_bits(got, want, msg):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, msg
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan, err_msg=msg)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64), err_msg=msg)


def test_law_with_kept_constants_equals_the_public_composition_bit_for_bit():
    # SafetyLaw keeps its nominal and its basis's polygon structure, and the
    # filter hands the selection's slack to the reshaping;
    # build_constraint_set -> lipschitz_selection -> reshape_b_l ->
    # PolygonRows(a_l).project evaluates the set at the selection again and
    # rebuilds the polygon structure on every call. Both must give
    # the same bits, with the same exception for a single state and the
    # same NaN rows in a batch.
    # "narrow" has a coverage constant below the norm coefficient, so its
    # reshaping fails at every state, single or batched, after any failure
    # the set or the selection raises first.
    states = _outer_law_states(20240607)
    laws = _outer_laws()
    walls = laws["uncertain"]
    laws["narrow"] = SafetyLaw(WALLS, walls.nominal, PositiveBasis(walls.basis.a_l, 0.05),
                               walls.bounds, walls.rates, k_phi=2.0)
    raised = set()
    for name, law in laws.items():
        for x in [*states[::3], states]:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    want = _composed(law, x)
            except SafecascadeError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    law.evaluate(x)
                raised.add((name, type(exc)))
                continue
            assert name != "narrow"
            got = law.evaluate(x)
            if x is states:
                assert np.isnan(want[0]).any(), name
            for g, w in zip(got, want):
                _assert_same_bits(g, w, f"{name} at {x}")
    assert ("walls", ZeroGradientError) in raised and ("discs", SelectionConditionError) in raised
    assert ("narrow", CoverageConditionError) in raised


def test_k1_estimate_masks_only_package_errors(monkeypatch):
    box = ((-3.0, 6.0), (-0.5, 12.0))
    law = wall_law()

    def undefined(*args):
        raise ZeroGradientError("law undefined here")

    def broken(*args):
        raise TypeError("a fault in the law")

    monkeypatch.setattr(cascade, "build_constraint_set", undefined)
    assert estimate_safety_law_lipschitz(law, box, grid=5) == 0.0
    monkeypatch.setattr(cascade, "build_constraint_set", broken)
    with pytest.raises(TypeError):
        estimate_safety_law_lipschitz(law, box, grid=5)
