import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safecascade import cascade, reshaping, scenario
from safecascade.cascade import (
    ESTIMATE_BLOCK_STATES,
    CascadeController,
    CascadeGains,
    SafetyLaw,
    estimate_lipschitz,
    in_row_blocks,
    k_selection_audit,
    small_gain_audit,
    tracking_law,
)
from safecascade.certificates import CertificateSpec, Disc, Segment, eval_segment
from safecascade.errors import (
    CoverageConditionError,
    SafecascadeError,
    SelectionConditionError,
    ZeroGradientError,
)
from safecascade.qcqp_safety import (
    build_constraint_set,
    disc_constraint_set,
    lipschitz_selection,
)
from safecascade.qp_solver import PolygonRows, Polyhedron, row_product, solve_projection_qp
from safecascade.reshaping import PositiveBasis, make_positive_basis, reshape_b_l
from safecascade.scenario import build_scenario, estimate_safety_law_lipschitz, load_scenario, parse_config_text
from safecascade.sim import run_closed_loop

from helpers import Raised, assert_same_bits, bundled_config, filter_calls, layouts, outcome
from oracles import batch_law, batch_set, grid_lipschitz, ledger_products, one_state_controller, one_state_law

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
    out = tracking_law(e, 0.0, 5.0)
    np.testing.assert_allclose(out, -5.0 * e, atol=1e-12)


def test_tracking_law_zero_error():
    np.testing.assert_array_equal(tracking_law(np.zeros(2), 0.0, 3.0), np.zeros(2))


@settings(max_examples=150, deadline=None)
@given(
    c=st.floats(0.0, 0.72),
    slope=st.floats(0.1, 10.0),
    ex=st.floats(-3.0, 3.0),
    ey=st.floats(-3.0, 3.0),
)
def test_tracking_law_meets_row_with_equality(c, slope, ex, ey):
    e = np.array([ex, ey])
    if np.linalg.norm(e) < 1e-6:
        e = np.array([1.0, 0.0])
    u = tracking_law(e, c, slope)
    direction = e / np.linalg.norm(e)
    lhs = float(direction @ u) + c * float(np.linalg.norm(u))
    assert lhs == pytest.approx(-slope * float(np.linalg.norm(e)), rel=1e-9, abs=1e-9)


def test_tracking_law_positive_homogeneity():
    e = np.array([0.4, 0.9])
    base = tracking_law(e, 0.0, 2.0)
    for lam in (0.5, 3.0, 11.0):
        np.testing.assert_allclose(tracking_law(lam * e, 0.0, 2.0), lam * base, atol=1e-12)


def test_tracking_law_norms_match_linalg_norm_bit_for_bit():
    # The law's norm is sqrt(e . e), which is np.linalg.norm's formula for a
    # vector, and it applies the vector formula entry by entry on floats:
    # the vector formula written with np.linalg.norm gives the same bits at
    # the stock gains.
    c = 0.2
    rng = np.random.default_rng(11)
    for slope in (7.0, 8.0, 320.0, 4.0e5):
        for e in rng.normal(scale=10.0 ** rng.integers(-6, 6, size=(200, 1)), size=(200, 2)):
            scale = 1.0 / (1.0 - c)
            nrm = float(np.linalg.norm(e))
            assert_same_bits(tracking_law(e, c, slope), -(e / nrm) * scale * slope * nrm)


def test_controller_levels_call_tracking_law_per_slope(monkeypatch):
    # Level i's input is tracking_law(x_i - x*_i, the law's c, K_i),
    # called through the cascade module's name (the benchmark's trace hooks
    # rebind it).
    c = 0.2
    law = SafetyLaw(WALLS, np.array([0.6, 1.0]), make_positive_basis(11), c, 1.0, 2.0)
    controller = CascadeController(law, STOCK_GAINS)
    rng = np.random.default_rng(5)
    blocks = [np.array([-2.0, 1.0]), *rng.normal(size=(3, 2))]
    ev = controller.evaluate(blocks)
    for i, slope in enumerate(STOCK_GAINS.tracking_slopes, start=1):
        np.testing.assert_array_equal(ev.x_stars[i],
                                      tracking_law(blocks[i] - ev.x_stars[i - 1], c, slope))
    seen = []
    monkeypatch.setattr(cascade, "tracking_law",
                        lambda e, b, k: seen.append((b, k)) or np.zeros(2))
    controller.evaluate(blocks)
    assert seen == [(c, k) for k in STOCK_GAINS.tracking_slopes]


# ----------------------------------------------------------------- ledger

def test_ledger_stock_values():
    gains = CascadeGains(tracking_slopes=(8.0, 320.0), k1=3.49)
    assert gains.kbar(2, 2) == pytest.approx(16.0)
    assert gains.kbar(1, 2) == pytest.approx(55.84)
    for (p, i), value in ledger_products({2: 8.0, 3: 320.0}, 3.49).items():
        assert gains.kbar(p, i) == pytest.approx(value, rel=1e-12)


def test_ledger_empty_product_conventions():
    gains = CascadeGains(tracking_slopes=(8.0,), k1=2.0)
    assert gains.kbar(3, 2) == 0.0
    assert gains.kbar(2, 1) == 0.0
    assert gains.kbar(1, 1) == 2.0      # the level-2 channels read k1 alone


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
    return SafetyLaw(WALLS, np.array([0.6, 1.0]), make_positive_basis(11), 0.0, 1.0,
                     k_phi=2.0)


def build_wall_controller(gains):
    return CascadeController(wall_law(), gains)


def test_single_level_controller_is_the_filter():
    law = wall_law()
    controller = CascadeController(rho1=law, gains=None)
    x1 = np.array([-2.0, 1.0])
    np.testing.assert_allclose(controller.evaluate([x1]).u, law.evaluate(x1)[0], atol=1e-12)


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
    rho1 = controller.rho1.evaluate(x1)[0]
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
        expected = -6.0 * (x2 - controller.rho1.evaluate(x1)[0])
        np.testing.assert_allclose(controller.evaluate([x1, x2]).u, expected, atol=1e-12)


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
    (200, [(4000, 2)] * 10),
    (130, [(4030, 2)] * 4 + [(780, 2)]),       # 31 rows a block; 130 = 4 * 31 + 6
], ids=["grid17", "grid200", "grid130_uneven"])
def test_estimate_lipschitz_calls_fn_on_blocks_of_whole_grid_rows(grid, shapes):
    # Every grid state once, rows whole and in order, at most
    # ESTIMATE_BLOCK_STATES states a call.
    assert ESTIMATE_BLOCK_STATES == 4096
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
        values = np.array(law.evaluate(x)[0])
        for cert in law.certs:
            values[eval_segment(cert, x).h < 0] = np.nan
        return values

    monkeypatch.setattr(cascade, "ESTIMATE_BLOCK_STATES", 1)
    rows = estimate_lipschitz(masked_by_segments, workspace, grid=200)
    assert blocked == rows
    assert blocked == pytest.approx(FROZEN_K1_GRID_ESTIMATE, rel=1e-3)


def _single_or_nan(law, x):
    try:
        return law.evaluate(x)[0]
    except SafecascadeError:
        return np.full(2, np.nan)


def _outer_laws(n_l=11):
    """Outer laws over walls, overlapping discs, an uncertain input gain
    (c > 0), whose rate is steepened for it, and walls at levels 1 and 2
    with the slope 1.5, each row through its own level's envelope, on a
    basis of n_l directions."""
    basis = make_positive_basis(n_l)
    nominal = np.array([0.6, 1.0])
    discs = [CertificateSpec(Disc([0.0, 6.0], 1.0)), CertificateSpec(Disc([0.8, 6.0], 1.0))]
    c = 0.1
    return {
        "walls": SafetyLaw(WALLS, nominal, basis, 0.0, 1.0, k_phi=2.0),
        "discs": SafetyLaw(discs, nominal, basis, 0.0, 1.0, k_phi=1.0),
        "uncertain": SafetyLaw(WALLS, nominal, basis, c, 1.0, k_phi=2.0),
        "levels": SafetyLaw([WALLS[0], CertificateSpec(WALLS[1].geometry, 0.35, level=2.0)],
                            nominal, basis, 0.0, 1.5, k_phi=2.0),
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
            batch = law.evaluate(states)[0]
            single = np.array([_single_or_nan(law, x) for x in states])
        assert batch.shape == states.shape
        undefined = np.isnan(single).any(axis=1)
        assert undefined.any(), name
        np.testing.assert_array_equal(np.isnan(batch).any(axis=1), undefined, err_msg=name)
        np.testing.assert_allclose(batch[~undefined], single[~undefined], rtol=0.0, atol=1e-12,
                                   err_msg=name)
    # The far field passes the nominal through (the rows are the unit
    # gradient of h, whatever the scale of grad V = -V grad h).
    np.testing.assert_array_equal(laws["walls"].evaluate(np.array([[0.0, 25.0], [0.0, 100.0]]))[0],
                                  [[0.6, 1.0], [0.6, 1.0]])


@pytest.mark.parametrize("n_l", [5, 11, 21, 33, 51, 101])
def test_one_state_and_batches_of_every_width_give_the_same_bits(n_l):
    # Every product of the law rounds as a batch's matrix product does, so
    # one state, batches of one and of two, one batch of every state and one
    # of seven copies (wider than a k1 block) give the same bits: on seeded
    # states with nothing exact in binary (the nominal neither), more than
    # ten of them with a nonzero selection, and NaN rows exactly where one
    # state raises; on basis sizes spread over the admitted 5 to 101.
    states = _outer_law_states(4711)[::3]
    for name, law in _outer_laws(n_l).items():
        single = np.array([_single_or_nan(law, x) for x in states])
        whole = law.evaluate(states)[0]
        wide = law.evaluate(np.tile(states, (7, 1)))[0]
        ones = np.concatenate([law.evaluate(x[None])[0] for x in states])
        twos = np.concatenate([law.evaluate(states[k:k + 2])[0] for k in range(0, states.shape[0], 2)])
        for got, want in ((whole, single), (wide, np.tile(single, (7, 1))), (ones, single), (twos, single)):
            _assert_same_bits(got, want, f"{name} at n_l = {n_l}")
        selection = lipschitz_selection(build_constraint_set(states, law.certs, law.c, law.k_alpha))
        assert ((selection != 0.0) & np.isfinite(selection)).any(axis=1).sum() > 10, name


def _composed(law, x):
    """The law rebuilt from the public functions, which derive every
    constant the law keeps on each call."""
    nominal = np.broadcast_to(law.nominal, np.shape(x))
    cs = build_constraint_set(x, law.certs, law.c, law.k_alpha)
    b_l = reshape_b_l(lipschitz_selection(cs), cs, law.basis, law.k_phi)
    return PolygonRows(law.basis.a_l).project(nominal, b_l), cs.h, cs.v


def _assert_same_bits(got, want, msg):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, msg
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan, err_msg=msg)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64), err_msg=msg)


def _with_narrow(laws):
    """laws plus "narrow": the uncertain law on a basis whose coverage
    constant is below its norm coefficient, so every reshaping fails."""
    walls = laws["uncertain"]
    laws["narrow"] = SafetyLaw(WALLS, walls.nominal, PositiveBasis(walls.basis.a_l, 0.05),
                               walls.c, walls.k_alpha, k_phi=2.0)
    return laws


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
    laws = _with_narrow(_outer_laws())
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


def test_laws_sharing_one_basis_keep_their_own_nominal_products():
    # A basis holds no per-law state: two laws on one basis, with different
    # nominals, each keep A_L u0 read-only with row_product's bits, and each
    # projects its own nominal, as the same law on a basis of its own does,
    # whichever law ran last. Evaluating leaves each nominal read-only.
    basis = make_positive_basis(11)
    nominals = (np.array([0.6, 1.0]), np.array([-1.7, 0.3]))
    shared = [SafetyLaw(WALLS, u0, basis, 0.0, 1.0, k_phi=2.0) for u0 in nominals]
    alone = [SafetyLaw(WALLS, u0, make_positive_basis(11), 0.0, 1.0, k_phi=2.0) for u0 in nominals]
    for law, u0 in zip(shared, nominals):
        assert_same_bits(law.nominal_dots, row_product(u0, basis.polygon.a_t))
        assert not law.nominal_dots.flags.writeable
    moved = set()
    for x in [*_outer_law_states(1123)[::7], np.array([0.0, 25.0])]:
        for law, own, u0 in [*zip(shared, alone, nominals), (shared[0], alone[0], nominals[0])]:
            got, want = outcome(lambda: law.evaluate(x)[0]), outcome(lambda: own.evaluate(x)[0])
            if isinstance(want, Raised):
                assert got == want
                continue
            assert_same_bits(got, want)
            moved.add((u0.tobytes(), bool(np.any(got != u0))))
    assert moved == {(u0.tobytes(), flag) for u0 in nominals for flag in (False, True)}
    for law, u0 in zip(shared, nominals):
        assert not law.nominal.flags.writeable
        assert_same_bits(law.nominal, u0)


def _law_args(law):
    """one_state_law's arguments after the state."""
    return (law.certs, law.nominal, law.basis.a_l, law.basis.c_a, law.c, law.k_alpha, law.k_phi)


def test_one_state_law_on_floats_equals_the_array_reference_bit_for_bit():
    # One state runs on floats; oracles.one_state_law is the same law on
    # numpy arrays, in the order the package computed it before. Same bits
    # for u, h and V (NaN and the sign of zero included), and the same
    # exception type and message wherever the reference raises.
    states = np.vstack([_outer_law_states(5551212), [[np.nan, 1.0], [0.0, np.nan]]])
    seen = set()
    for name, law in _with_narrow(_outer_laws()).items():
        ref = _law_args(law)
        for x in states:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                want = outcome(lambda: one_state_law(x, *ref))
                got = outcome(lambda: law.evaluate(x))
            if isinstance(want, Raised):
                assert got == want, (name, x)
                seen.add((name, want[0].__name__, want[1].split(" ")[0]))
                continue
            for g, w in zip(got, want):
                assert_same_bits(g, w)
            seen.add((name, want[3], bool(np.isnan(want[0]).any())))
    assert {("walls", "ZeroGradientError", "query"), ("discs", "AtCenterError", "query"),
            ("discs", "SelectionConditionError", "offset"),
            ("narrow", "CoverageConditionError", "coverage")} <= seen
    for name in ("walls", "discs", "uncertain", "levels"):
        assert {(name, stage, False) for stage in ("inside", "edge", "vertex")} <= seen, name
        assert (name, "nan", True) in seen, name


def _assert_same_step(controller, blocks):
    """controller.evaluate(blocks) against oracles.one_state_controller:
    the same bits for every virtual control, h and V, or the same error."""
    law = controller.rho1
    scale = 1.0 / (1.0 - law.c)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = outcome(lambda: one_state_controller(blocks, _law_args(law), scale,
                                                    controller.gains.tracking_slopes))
        got = outcome(lambda: controller.evaluate(blocks))
    if isinstance(want, Raised):
        assert got == want
        return want
    assert len(got.x_stars) == len(want[0])
    for g, w in zip((*got.x_stars, got.h, got.v), (*want[0], want[1], want[2])):
        assert_same_bits(g, w)
    assert got.u is got.x_stars[-1]
    return want


def test_controller_step_equals_the_vector_reference_bit_for_bit():
    # Each tracking level runs on floats; oracles.one_state_controller is
    # the outer law's array reference plus each level as the vector formula
    # with np.linalg.norm. Same bits for x2*, ..., u, h and V at every 25th
    # state of a vtol_unsafe run, and at the outer-law states with tracking
    # errors that are zero, at most 1e-15, NaN or of order one.
    scenario = build_scenario(load_scenario(bundled_config("vtol_unsafe")))
    traj = run_closed_loop(scenario.plant, scenario.controller, scenario.x0, scenario.horizon,
                           scenario.dt, workspace=scenario.workspace)
    assert traj.termination == "completed"
    for state in traj.states[::25]:
        _assert_same_step(scenario.controller, scenario.plant.blocks(state))

    rng = np.random.default_rng(31415)
    errors = [lambda: np.zeros(2), lambda: rng.uniform(-5e-16, 5e-16, size=2),
              lambda: np.array([np.nan, rng.normal()]), lambda: rng.normal(scale=2.0, size=2)]
    seen = set()
    for law in _outer_laws().values():
        controller = CascadeController(law, STOCK_GAINS)
        for k, x in enumerate(_outer_law_states(2718281)):
            try:
                star = law.evaluate(x)[0]
            except SafecascadeError:
                star = np.zeros(2)
            # Each block is the previous virtual control plus an error of
            # one kind, so the level's error is about that error.
            blocks = [x]
            for level, slope in enumerate(STOCK_GAINS.tracking_slopes):
                blocks.append(star + errors[(k + level) % len(errors)]())
                e = np.linalg.norm(blocks[-1] - star)
                seen.add("nan" if np.isnan(e) else "zero" if e == 0.0 else "tiny" if e <= 1e-15 else "large")
                star = tracking_law(blocks[-1] - star, law.c, slope)
            seen.add(type(_assert_same_step(controller, blocks)).__name__)
    assert seen == {"zero", "tiny", "nan", "large", "Raised", "tuple"}


def test_batched_law_equals_the_array_reference_bit_for_bit():
    # A batch sums, and takes maxima and minima, over its short axes one
    # row of states at a time and works in place; oracles.batch_law is the
    # same law with numpy's reductions and a new array for every step. Same
    # bits for the set (a, b, h, V) and for u, h and V, NaN rows included,
    # over the spines, two discs, three certificates (the partition of the
    # offsets), c > 0 and bases of 3, 11 and 21 rows, with the states in C
    # order, Fortran order and a transposed view; "narrow" fails its
    # reshaping for the whole batch.
    states = np.vstack([_outer_law_states(16180339), [[np.nan, 1.0], [0.0, np.nan]]])
    laws = _with_narrow(_outer_laws())
    walls = laws["walls"]
    laws["three"] = SafetyLaw([*WALLS, CertificateSpec(Disc([0.8, 6.0], 1.0))], walls.nominal,
                              walls.basis, walls.c, walls.k_alpha, k_phi=2.0)
    # Three rows at 120 degrees carry the constant -1/2, which fails the
    # coverage condition; stated as 0.05, the reshaping runs on three rows.
    for n_l, basis in ((3, PositiveBasis(make_positive_basis(3).a_l, 0.05)),
                       (21, make_positive_basis(21))):
        laws[f"{n_l} rows"] = SafetyLaw(WALLS, walls.nominal, basis, walls.c, walls.k_alpha, k_phi=2.0)
    for name, law in laws.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            want_set = batch_set(states, law.certs, law.k_alpha, law.c)
            want = outcome(lambda: batch_law(states, law.certs, law.nominal, law.basis.a_l, law.basis.c_a,
                                             law.c, law.k_alpha, law.k_phi))
        for layout, x in layouts(states):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                cs = build_constraint_set(x, law.certs, law.c, law.k_alpha)
                for got, ref in zip((cs.a, cs.b, cs.h, cs.v), want_set):
                    assert_same_bits(got, ref)
                got = outcome(lambda: law.evaluate(x))
            if name == "narrow":
                assert isinstance(want, Raised) and want[0] is CoverageConditionError
                assert got == want
                continue
            for g, w in zip(got, want):
                assert_same_bits(g, w)
        if name != "narrow":
            nan_rows = np.isnan(want[0]).any(axis=1)
            assert nan_rows.any() and not nan_rows.all(), name


def test_estimate_lipschitz_equals_the_norm_reference_bit_for_bit():
    # The slopes' norm is a column sum; oracles.grid_lipschitz takes
    # np.linalg.norm over the same values. The map has NaN cells, values of
    # one, two and three components, and a grid of one row per axis.
    def fn(x):
        out = np.column_stack([np.sin(3.0 * x[:, 0]) * x[:, 1], np.exp(0.3 * x[:, 0]) - x[:, 1] ** 2,
                               np.hypot(x[:, 0], x[:, 1] - 0.5)])
        out[np.hypot(x[:, 0] - 0.4, x[:, 1] - 1.0) < 0.5] = np.nan
        return out[:, :dims]

    for dims, box, grid in [(1, ((-3.0, 6.0), (-0.5, 12.0)), 57), (2, ((-3.0, 6.0), (-0.5, 12.0)), 200),
                            (3, ((-1.0, 2.0), (0.0, 3.0)), 64), (2, ((-1.0, 2.0), (1.0, 1.0)), 31)]:
        (x_lo, x_hi), (y_lo, y_hi) = box
        xs = np.linspace(x_lo, x_hi, grid)
        ys = np.linspace(y_lo, y_hi, grid) if y_hi > y_lo else np.array([y_lo])
        values = fn(np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size)]))
        want = grid_lipschitz(values.reshape(xs.size, ys.size, dims), xs, ys)
        assert want > 0.0
        assert estimate_lipschitz(fn, box, grid=grid) == want


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


# ------------------------------------------------- the masked k1 estimate

def _evaluate_then_mask(law):
    """The estimate's map as the law's evaluate and a mask after it: NaN
    inside an inflated segment (h < 0) and over a block where the law
    raises a package error."""
    def fn(x):
        try:
            values, h, _ = law.evaluate(x)
        except SafecascadeError:
            return np.full(x.shape, np.nan)
        values = np.array(values, dtype=float)
        for j, cert in enumerate(law.certs):
            if isinstance(cert.geometry, Segment):
                values[h[..., j] < 0] = np.nan
        return values
    return fn


# A third wall whose capsule covers x in [3.6, 5.4] over the whole
# workspace height: every state of the stock grid's block 8 (grid x
# indices 160 to 179, x from 4.24 to 5.10) lies inside it.
THIRD_WALL = {"obstacle.3.kind": "segment", "obstacle.3.p1_m": "4.5, -0.5", "obstacle.3.p2_m": "4.5, 12",
              "obstacle.3.safe_distance_m": "0.9"}

ESTIMATE_VARIANTS = {
    "stock": ("vtol_safe", {}),
    "overlap": ("vtol_safe", {"obstacle.1.safe_distance_m": "0.505", "obstacle.2.safe_distance_m": "0.505"}),
    "walls_1.5m": ("vtol_safe", {"obstacle.1.safe_distance_m": "1.5", "obstacle.2.safe_distance_m": "1.5"}),
    "disc": ("vtol_safe", {"obstacle.3.kind": "disc", "obstacle.3.center_m": "3.5, 6.0",
                           "obstacle.3.radius_m": "0.5"}),
    "level_0.9": ("vtol_safe", {"certificate.level": "0.9", "certificate.threshold": "1.3"}),
    "level_1.2": ("vtol_safe", {"certificate.level": "1.2"}),
    "kphi0": ("vtol_safe", {"reshape.k_phi": "0"}),
    "far_nominal": ("vtol_safe", {"nominal.value": "2.0, 3.0"}),
    "rows21": ("vtol_safe", {"reshape.directions": "21"}),
    "unsafe": ("vtol_unsafe", {}),
    "third_wall": ("vtol_safe", THIRD_WALL),
}


def _variant(name):
    """The outer law and workspace of an ESTIMATE_VARIANTS entry."""
    config, keys = ESTIMATE_VARIANTS[name]
    text = bundled_config(config).read_text()
    for key, value in keys.items():
        text, hits = re.subn(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, count=1, flags=re.M)
        if not hits:
            text += f"\n{key} = {value}\n"
    built = build_scenario(parse_config_text(text))
    return built.controller.rho1, built.workspace


def _grid_states(box, grid):
    (x_lo, x_hi), (y_lo, y_hi) = box
    xs, ys = np.linspace(x_lo, x_hi, grid), np.linspace(y_lo, y_hi, grid)
    return np.column_stack([np.repeat(xs, grid), np.tile(ys, grid)])


def _estimate_and_map(monkeypatch, law, box, grid):
    """The estimate and the map it hands estimate_lipschitz."""
    seen = []
    monkeypatch.setattr(scenario, "estimate_lipschitz",
                        lambda fn, box, grid: seen.append(fn) or estimate_lipschitz(fn, box, grid=grid))
    k1 = estimate_safety_law_lipschitz(law, box, grid=grid)
    return k1, seen[0]


@pytest.mark.parametrize("name", list(ESTIMATE_VARIANTS))
def test_masked_estimate_equals_evaluate_then_mask_bit_for_bit(monkeypatch, name):
    # Every state of the stock grid, block by block, gets the bits of the
    # law's evaluate masked after it, and so does the estimate; the third
    # wall masks all of block 8, and the overlapping walls give NaN rows.
    law, workspace = _variant(name)
    k1, fn = _estimate_and_map(monkeypatch, law, workspace, 200)
    states = _grid_states(workspace, 200)
    got, want = in_row_blocks(fn, states, 200), in_row_blocks(_evaluate_then_mask(law), states, 200)
    assert_same_bits(got, want)
    assert k1 == estimate_lipschitz(_evaluate_then_mask(law), workspace, grid=200)
    if name == "stock":
        assert k1 == 6.340757056043879
        assert np.isnan(got).any(axis=1).sum() == 2485
    if name == "third_wall":
        assert np.isnan(got[8 * 4000:9 * 4000]).all()


def test_no_masked_state_reaches_the_reshaping_or_the_projection(monkeypatch):
    # The masked states' offsets are +inf, which the inactive-state test
    # passes through, so exactly the active states outside every capsule
    # reach reshape_b_l and the projection.
    law, workspace = _variant("stock")
    want = 0
    for block in np.split(_grid_states(workspace, 200), 10):
        cs = build_constraint_set(block, law.certs, law.c, law.k_alpha)
        active = reshaping._active_states(law.nominal, cs, law.basis)
        want += int((cs.h[active] >= 0).all(axis=1).sum())
    seen = filter_calls(monkeypatch)
    estimate_safety_law_lipschitz(law, workspace, grid=200)
    reshaped, projected = np.concatenate(seen["reshape"]), np.concatenate(seen["project"])
    assert reshaped.shape[0] == projected.shape[0] == want > 0
    assert np.isfinite(reshaped).all() and np.isfinite(projected).all()


def test_a_wholly_masked_block_reshapes_nothing(monkeypatch):
    # Every state lies within 0.5 m of the third wall's spine, inside its
    # 0.9 m capsule: the set is built, and nothing is reshaped or projected.
    law, _ = _variant("third_wall")
    built = []
    build = cascade.build_constraint_set
    monkeypatch.setattr(cascade, "build_constraint_set", lambda x, *args: built.append(x.shape) or build(x, *args))
    seen = filter_calls(monkeypatch)
    k1, fn = _estimate_and_map(monkeypatch, law, ((4.0, 4.4), (0.0, 11.0)), 20)
    assert k1 == 0.0 and built == [(400, 2)]
    assert seen == {"reshape": [], "project": []}
    assert np.isnan(fn(_grid_states(((4.0, 4.4), (0.0, 11.0)), 20))).all()


def test_a_spine_state_inside_its_capsule_stays_nan(monkeypatch):
    # The grid's middle column lies on the third wall's spine: those five
    # states keep their NaN rows beside the +inf offsets, reach the stages
    # and come out NaN, with no warning; every other state is masked before.
    law, _ = _variant("third_wall")
    box = ((4.0, 5.0), (0.0, 11.0))
    seen = filter_calls(monkeypatch)
    k1, fn = _estimate_and_map(monkeypatch, law, box, 5)
    assert k1 == 0.0
    assert [b.shape[0] for b in seen["reshape"]] == [5] and [b.shape[0] for b in seen["project"]] == [5]
    assert np.isposinf(seen["reshape"][0]).all()
    states = _grid_states(box, 5)
    assert_same_bits(fn(states), _evaluate_then_mask(law)(states))
    assert np.isnan(fn(states)).all()


def test_a_law_without_certificates_estimates_zero(monkeypatch):
    law = SafetyLaw([], np.array([0.6, 1.0]), None, 0.0, 1.0, k_phi=2.0)
    k1, fn = _estimate_and_map(monkeypatch, law, ((-3.0, 6.0), (-0.5, 12.0)), 20)
    assert k1 == 0.0
    states = _grid_states(((-3.0, 6.0), (-0.5, 12.0)), 20)
    np.testing.assert_array_equal(fn(states), np.broadcast_to([0.6, 1.0], states.shape))
