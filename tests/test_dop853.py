"""pcqed's DOP853 against its sources: the published tableau and scipy's solver.

``scipy.integrate.DOP853`` is the reference the transcription follows: the
same tableau and the same step control, so on the same problem both must
take the same steps, call the right-hand side as often, and end in the same
state to rounding.
"""

import ast
import cmath
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate._ivp import dop853_coefficients as ref

from pcqed import dop853, ode
from pcqed.core import AmplitudeVector, ConvergenceError, build_subspace
from pcqed.coupling import (
    CouplingTrace,
    GenericProfile,
    GenericProfileParams,
    ScaledProfile,
    drive_from_profile,
    drive_pair,
    scaled_pair,
)

from conftest import generic_family
from oracles import Formula, comprehension_step, example_config_path, table_rhs


def coefficient(prefix: str, row: int, col: int) -> float:
    """dop853.f's coefficient ``<prefix><row><col>`` (1-based), or 0 if the
    tableau leaves it out."""
    return getattr(dop853, f"{prefix}{row}{col}", 0.0)


def tableau():
    """(C, A, B, E3, E5, D) in the layout of scipy's dop853_coefficients."""
    n = ref.N_STAGES_EXTENDED
    c = np.array([0.0] + [getattr(dop853, f"C{i}", 1.0) for i in range(2, n + 1)])
    a = np.zeros((n, n))
    for row in range(2, n + 1):
        for col in range(1, row):
            a[row - 1, col - 1] = coefficient("A", row, col)
    b = np.array([getattr(dop853, f"B{i}", 0.0) for i in range(1, ref.N_STAGES + 1)])
    a[ref.N_STAGES, :ref.N_STAGES] = b  # stage 13, f at the step's end, is taken at y_new
    e3 = np.append(b, 0.0)
    e3[[0, 8, 11]] -= [dop853.BHH1, dop853.BHH2, dop853.BHH3]
    e5 = np.array([getattr(dop853, f"ER{i}", 0.0) for i in range(1, ref.N_STAGES + 2)])
    d = np.array([[coefficient("D", row, col) for col in range(1, n + 1)] for row in range(4, 8)])
    return c, a, b, e3, e5, d


class TestTableau:
    def test_equals_scipy_coefficients(self):
        c, a, b, e3, e5, d = tableau()
        np.testing.assert_array_equal(c, ref.C)
        np.testing.assert_array_equal(a, ref.A)
        np.testing.assert_array_equal(b, ref.B)
        np.testing.assert_array_equal(e3, ref.E3)
        np.testing.assert_array_equal(e5, ref.E5)
        np.testing.assert_array_equal(d, ref.D)

    def test_every_named_coefficient_is_in_the_tableau(self):
        # a misnamed constant would read as a zero in the layout above
        names = {name for name in vars(dop853) if re.fullmatch(r"(A|B|C|D|ER|BHH|E3)\d+", name)}
        n = ref.N_STAGES_EXTENDED
        laid_out = ({f"C{i}" for i in range(2, n + 1)}
                    | {f"A{r}{c}" for r in range(2, n + 1) for c in range(1, r)}
                    | {f"B{i}" for i in range(1, 13)} | {f"ER{i}" for i in range(1, 14)}
                    | {f"D{r}{c}" for r in range(4, 8) for c in range(1, n + 1)}
                    | {"BHH1", "BHH2", "BHH3", "E31", "E39", "E312"})
        assert names <= laid_out

    def test_row_sums_are_the_nodes(self):
        c, a, _, _, _, _ = tableau()
        np.testing.assert_allclose(a.sum(axis=1), c, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_weights_meet_the_quadrature_conditions(self, k):
        c, _, b, _, _, _ = tableau()
        assert np.sum(b * c[:ref.N_STAGES] ** (k - 1)) == pytest.approx(1 / k, rel=0, abs=1e-14)

    def test_order3_estimator_is_b_less_bhh(self):
        assert dop853.E31 == dop853.B1 - dop853.BHH1
        assert dop853.E39 == dop853.B9 - dop853.BHH2
        assert dop853.E312 == dop853.B12 - dop853.BHH3


def integrate(couplings, g_a, g_b, y0, t0, t1, blocks=None, times=()):
    """``ode._integrate``'s solver and the times of its accepted steps,
    recorded by wrapping ``DOP853.step``."""
    steps = []
    step = dop853.DOP853.step

    def recording(solver):
        step(solver)
        steps.append(solver.t)

    with mock.patch.object(dop853.DOP853, "step", recording):
        solver, n_steps, _ = ode._integrate(couplings, g_a, g_b, y0, t0, t1, ode.DEFAULT_RTOL,
                                            ode.DEFAULT_ATOL, blocks=blocks, times=times)
    assert n_steps == len(steps)
    return solver, steps


def run_both(couplings, g_a, g_b, y0, t0, t1, sample=False):
    """pcqed's integration loop and scipy's DOP853 on the same right-hand side
    and spans.

    Returns, for each, the times of the accepted steps, nfev, the final state
    and, if ``sample``, the dense output at one time inside every accepted
    step, its midpoint.  pcqed takes those times in a second run, whose
    steps must be the first run's.
    """
    solver, mine_t = integrate(couplings, g_a, g_b, y0, t0, t1)
    sample_at = (np.array(mine_t) + [t0, *mine_t[:-1]]) / 2 if sample else np.empty(0)
    if sample:
        solver, steps = integrate(couplings, g_a, g_b, y0, t0, t1, times=sample_at)
        assert steps == mine_t  # output times do not move the steps
    mine = (mine_t, solver.nfev, np.array(solver.y), solver.dense)

    fun = solver.fun  # the same right-hand side, on arrays
    bounds = [*ode._breakpoints((g_a, g_b), t0, t1), t1]
    theirs = ScipyDOP853(lambda t, y: np.array(fun(float(t), y.tolist())), t0, np.asarray(y0),
                         bounds[0], rtol=ode.DEFAULT_RTOL, atol=ode.DEFAULT_ATOL)
    their_t, their_dense = [], []
    for bound in bounds:
        theirs.t_bound, theirs.status = bound, "running"
        while theirs.status == "running":
            theirs.step()
            assert theirs.status != "failed"
            their_t.append(float(theirs.t))
            lo, hi = np.searchsorted(sample_at, [theirs.t_old, theirs.t], side="right")
            their_dense += [theirs.dense_output()(s) for s in sample_at[lo:hi]]
    # scipy runs the three extra stages on every dense_output() call, pcqed
    # once per step that holds an output time: with one time in every step,
    # nfev agrees.
    return mine, (their_t, theirs.nfev, theirs.y, np.array(their_dense))


class TestScipyParity:
    def test_generic_drive(self):
        profile = GenericProfile(generic_family(velocity=433.0))
        g_a, g_b, _ = drive_pair(profile, 0.414)
        t0, t1 = profile.window
        y0 = AmplitudeVector.basis_state("100").amplitudes
        check_same_steps(build_subspace(1).couplings, g_a, g_b, y0, t0, t1)

    def test_bundled_field3d_trace(self, field3d_trace, field3d_config):
        g_a, g_b, _ = drive_pair(field3d_trace, field3d_config["p"])
        t0, t1 = field3d_trace.window
        y0 = AmplitudeVector.basis_state("010").amplitudes
        # about 2000 steps: the run crosses many batches of dense output
        check_same_steps(build_subspace(1).couplings, g_a, g_b, y0, t0, t1,
                         min_steps=4 * dop853.BATCH)

    def test_four_state_stack(self):
        # One block over the stack, so the norms are scipy's (final_states
        # takes them block by block).  Beyond three components numpy sums
        # scipy's stage and error dot products in BLAS order, not in the
        # order of the transcription; in components at the atol floor the
        # step control amplifies that rounding, so the steps agree in number
        # and place only closely and the states to rounding.
        states = [AmplitudeVector.basis_state(label) for label in ("100", "010", "110", "000")]
        couplings, blocks = ode._stack(states)
        profile = GenericProfile(generic_family(velocity=433.0))
        g_a, g_b, _ = drive_pair(profile, 0.414)
        y0 = np.concatenate([states[i].amplitudes for i in blocks])
        (mine_t, mine_nfev, mine_y, _), (their_t, their_nfev, their_y, _) = run_both(
            couplings, g_a, g_b, y0, *profile.window)
        assert len(y0) == 10
        assert len(mine_t) == pytest.approx(len(their_t), rel=0.01)
        assert mine_nfev == pytest.approx(their_nfev, rel=0.02)
        assert np.max(np.abs(mine_y - their_y)) <= 1e-12


def check_same_steps(couplings, g_a, g_b, y0, t0, t1, min_steps=1):
    """On up to three components the arithmetic is scipy's to the last bit
    but for the summation order of the norms: the same steps, nfev and, to
    rounding, states, the dense output inside every step included."""
    (mine_t, mine_nfev, mine_y, mine_d), (their_t, their_nfev, their_y, their_d) = run_both(
        couplings, g_a, g_b, y0, t0, t1, sample=True)
    assert len(mine_t) == len(their_t) >= min_steps
    assert mine_d.shape == their_d.shape == (len(mine_t), len(y0))
    np.testing.assert_allclose(mine_t, their_t, rtol=1e-13, atol=0)
    assert mine_nfev == their_nfev
    assert np.max(np.abs(mine_y - their_y)) <= 1e-13
    assert np.max(np.abs(mine_d - their_d)) <= 1e-13


# y' = -i y and y' = y on one component
ROTATION = dop853.Source(("f_0 = -1j * a_0",), (), ())
GROWTH = dop853.Source(("f_0 = a_0",), (), ())


class TestSolver:
    def test_nfev_counts_every_call(self):
        # The steps that hold output times span several batches of dense
        # output, and output times do not move the steps.
        def run(times=()):
            calls = []
            source = dop853.Source(("called(T)", "f_0 = -1j * a_0"), ("called",), (calls.append,))
            solver = dop853.DOP853(source, 0.0, [1 + 0j], 1000.0, 1e-9, 1e-11, times=times)
            ends = []
            while solver.t < 1000.0:
                solver.step()
                ends.append(solver.t)
            assert solver.nfev == len(calls)
            return solver, ends

        times = np.linspace(0.0, 1000.0, 20001)[1:]
        bare, bare_ends = run()
        solver, ends = run(times)
        assert ends == bare_ends
        held = len(np.unique(np.searchsorted(ends, times)))  # steps that hold output times
        assert held > 2 * dop853.BATCH
        assert solver.nfev - bare.nfev == 3 * held  # the three extra stages of each
        np.testing.assert_allclose(solver.dense[:, 0], np.exp(-1j * times), rtol=0, atol=1e-6)

    def test_time_at_a_step_end_is_read_from_that_step(self):
        # The span's last step holds the output time at its end, x = 1, where
        # the interpolant is y_old + (y - y_old).  That step runs the three
        # extra stages; the next one, which holds the time at x = 0, does not.
        solver = dop853.DOP853(ROTATION, 0.0, [1 + 0j], 1.0, 1e-9, 1e-11, times=[1.0])
        while solver.t < 1.0:
            y_old, nfev = solver.y, solver.nfev
            solver.step()
        assert (solver.nfev - nfev) % 12 == 3  # 12 per attempt, 3 for the dense output
        assert solver.dense[0].tolist() == [a + (b - a) for a, b in zip(y_old, solver.y)]
        solver.t_bound, nfev = 2.0, solver.nfev
        while solver.t < 2.0:
            solver.step()
        assert (solver.nfev - nfev) % 12 == 0

    def test_output_times_must_follow_t0(self):
        with pytest.raises(ValueError, match="after t0"):
            dop853.DOP853(GROWTH, 0.0, [1 + 0j], 1.0, 1e-9, 1e-11, times=[0.0, 0.5])

    def test_overflowing_first_norm_fails_at_t0(self):
        # |f| over the error scale past 1.3e154 overflows the norm's squares;
        # the first-step guess then divided by zero.
        with pytest.raises(ConvergenceError, match="not finite") as err:
            dop853.DOP853(dop853.Source(("f_0 = 1e160 * a_0",), (), ()), 2.0, [1 + 0j], 3.0,
                          1e-9, 1e-11)
        assert err.value.t == 2.0

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError, match="t0 < t_bound"):
            dop853.DOP853(GROWTH, 1.0, [1 + 0j], 1.0, 1e-9, 1e-11)


def oracle_kernel(fun, attempts):
    """A stand-in for ``dop853._kernel`` built from ``tests/oracles.py``: the
    comprehension step on the plain right-hand side ``fun``, whatever source
    the solver passes.  Appends the time of every attempted step to
    ``attempts``."""
    def kernel(n, blocks, lines, names):
        def build(*values):
            oracle = comprehension_step(fun, blocks)

            def step(t, *args):
                attempts.append(t)
                return oracle(t, *args)

            return step, fun

        return build

    return kernel


def check_matches_oracles(couplings, g_a, g_b, y0, t0, t1, blocks=None, n_times=2000,
                          min_steps=1, min_rejected=0):
    """The generated step and right-hand side against the list comprehensions
    and the table walk they replace, bit for bit, with output times across
    the window; at least ``min_rejected`` attempted steps are rejected."""
    times = np.linspace(t0, t1, n_times)[1:]

    def run():  # the states as bytes, so that equal means equal to the bit
        solver, steps = integrate(couplings, g_a, g_b, y0, t0, t1, blocks, times)
        return steps, solver.nfev, np.array(solver.y).tobytes(), solver.dense.tobytes()

    mine, attempts = run(), []
    with mock.patch.object(dop853, "_kernel",
                           oracle_kernel(table_rhs(couplings, g_a, g_b, len(y0)), attempts)):
        theirs = run()
    assert len(mine[0]) >= min_steps
    assert len(attempts) - len(mine[0]) >= min_rejected
    assert mine == theirs


def generated_rhs(couplings, g_a, g_b, dim, scaled=False):
    """The standalone right-hand side generated from ``ode._source``."""
    source = ode._source(couplings, g_a, g_b, dim, scaled)
    return dop853._kernel(dim, ((0, dim),), source.lines, source.names)(*source.values)[1]


def kernel_step(couplings, g_a, g_b, dim, scaled=False):
    """The generated step of ``ode._source`` on one block."""
    source = ode._source(couplings, g_a, g_b, dim, scaled)
    return dop853._kernel(dim, ((0, dim),), source.lines, source.names)(*source.values)[0]


def generated_text(source, n):
    """The code ``dop853._kernel`` generates from ``source`` on n components
    and one block, bypassing its cache."""
    texts = []

    def recording(text, *args):
        texts.append(text)
        return compile(text, *args)

    with mock.patch.object(dop853, "compile", recording, create=True):
        dop853._kernel.__wrapped__(n, ((0, n),), source.lines, source.names)
    return texts[0]


class TestStraightLineKernels:
    """``ode._integrate`` on generated code against ``tests/oracles.py``."""

    def test_bundled_generic_family(self):
        config = json.loads(example_config_path("entangler_generic").read_text())
        profile = GenericProfile(GenericProfileParams(**config["profile"]))
        g_a, g_b, _ = drive_pair(profile, config["p"])
        for label in ("100", "010"):
            y0 = AmplitudeVector.basis_state(label).amplitudes
            check_matches_oracles(build_subspace(1).couplings, g_a, g_b, y0, *profile.window)

    def test_bundled_field3d_trace(self, field3d_trace, field3d_config):
        g_a, g_b, _ = drive_pair(field3d_trace, field3d_config["p"])
        y0 = AmplitudeVector.basis_state("100").amplitudes
        check_matches_oracles(build_subspace(1).couplings, g_a, g_b, y0, *field3d_trace.window,
                              min_steps=4 * dop853.BATCH)

    def test_ten_component_stack(self):
        states = [AmplitudeVector.basis_state(label) for label in ("100", "010", "110", "000")]
        couplings, blocks = ode._stack(states)
        profile = GenericProfile(generic_family(velocity=433.0))
        g_a, g_b, _ = drive_pair(profile, 0.414)
        y0 = np.concatenate([states[i].amplitudes for i in blocks])
        assert len(y0) == 10
        check_matches_oracles(couplings, g_a, g_b, y0, *profile.window, blocks=blocks.values())

    @pytest.mark.parametrize("n", [1, 2])
    def test_complex_formulas(self, n):
        g_a = Formula("{p}g * {p}exp({p}w * T)", g=0.9e9, exp=cmath.exp, w=2.1e9j)
        g_b = Formula("{p}g * {p}exp({p}w * T)", g=(-0.2 + 0.4j) * 1e9, exp=cmath.exp, w=-0.7e9)
        h = build_subspace(n)
        check_matches_oracles(h.couplings, g_a, g_b, np.eye(h.dim)[-1], 0.0, 2.3e-9, n_times=50)

    @pytest.mark.parametrize("n", [1, 2])
    def test_drives_not_proportional(self, n):
        g_a = GenericProfile(generic_family(velocity=433.0))
        g_b = GenericProfile(GenericProfileParams(**{**vars(g_a.params), "defect_radius": 2e-7}))
        assert not isinstance(g_b, ScaledProfile)
        h = build_subspace(n)
        check_matches_oracles(h.couplings, g_a, g_b, np.eye(h.dim)[0], *g_a.window)

    def test_rejected_steps(self):
        # A drive that switches on inside the window, with no breakpoint
        # reported: the steps across the switch are rejected and retried.
        switch = dict(hi=2e9, t=0.7e-9, lo=0.3e9)
        g_a = Formula("{p}hi if T > {p}t else {p}lo", **switch)
        g_b = Formula("{p}c * ({p}hi if T > {p}t else {p}lo)", c=-0.5, **switch)
        check_matches_oracles(build_subspace(2).couplings, g_a, g_b, np.eye(4)[0], 0.0, 2e-9,
                              n_times=50, min_rejected=3)

    def test_callable_source(self):
        # a piecewise source with a temporary of its own, with rejections,
        # against a plain function of the same arithmetic
        source = dop853.Source(("rate = 3.0 if T > 0.4 else 0.5",
                                "f_0 = -1j * rate * a_1",
                                "f_1 = -1j * rate * a_0 + 0.1 * a_1"), (), ())

        def fun(t, y):
            rate = 3.0 if t > 0.4 else 0.5
            return [-1j * rate * y[1], -1j * rate * y[0] + 0.1 * y[1]]

        def run():
            solver = dop853.DOP853(source, 0.0, [1 + 0j, 0j], 5.0, 1e-9, 1e-11,
                                   times=np.linspace(0.0, 5.0, 101)[1:])
            ends = []
            while solver.t < 5.0:
                solver.step()
                ends.append(solver.t)
            return ends, solver.nfev, np.array(solver.y).tobytes(), solver.dense.tobytes()

        mine, attempts = run(), []
        with mock.patch.object(dop853, "_kernel", oracle_kernel(fun, attempts)):
            theirs = run()
        assert len(attempts) > len(mine[0])
        assert mine == theirs

    def test_numpy_scalar_parameters_run_as_floats(self):
        # perfbench draws its families and ratios as numpy scalars
        family = generic_family(velocity=433.0)
        as_numpy = GenericProfileParams(**{k: np.float64(v) for k, v in vars(family).items()})
        assert all(type(v) is float for v in vars(as_numpy).values())
        psi0 = AmplitudeVector.basis_state("100")
        runs = []
        for params, p in ((family, 0.414), (as_numpy, np.float64(0.414))):
            profile = GenericProfile(params)
            g_a, g_b, c = drive_pair(profile, p)
            assert type(c) is float
            runs.append(ode.evolve(build_subspace(1), g_a, g_b, psi0, *profile.window))
        assert runs[0].amplitudes.tobytes() == runs[1].amplitudes.tobytes()
        assert runs[0].diagnostics == runs[1].diagnostics

    def test_scaled_atom_b_reads_atom_a_once(self):
        # B = ScaledProfile(A, c) is c times A's value, never B's own lines:
        # the generated code evaluates A's formula once per evaluation, so
        # once per stage of a step and once in the standalone right-hand side
        g_a, g_b, _ = drive_pair(GenericProfile(generic_family(velocity=433.0)), 0.414)
        couplings, psi = build_subspace(1).couplings, [0.6 + 0j, 0.8j, 0j]
        with mock.patch.object(ScaledProfile, "scalar_lines", side_effect=AssertionError):
            source = ode._source(couplings, g_a, g_b, 3, True)
            out = generated_rhs(couplings, g_a, g_b, 3, scaled=True)(1e-9, psi)
        formula = [line for line in source.lines if line.startswith("g0 = ")]
        assert len(formula) == 1 and "g1 = db_c * g0" in source.lines
        assert [line for line in source.lines if "db_" in line] == ["g1 = db_c * g0"]
        assert generated_text(source, 3).count(formula[0]) == 12 + 1
        assert out == table_rhs(couplings, g_a, g_b, 3)(1e-9, psi)

    def test_separately_built_trace_pair_is_drive_pair(self, field3d_trace, field3d_config):
        # A and B built apart from one trace share its one drive, so the run
        # reads B as c times A, never through B's own lines: drive_pair's run
        p = field3d_config["p"]
        t0, t1 = field3d_trace.window
        psi0 = AmplitudeVector.basis_state("010")
        with mock.patch.object(ScaledProfile, "scalar_lines", side_effect=AssertionError):
            apart = ode.evolve(build_subspace(1), drive_from_profile(field3d_trace),
                               drive_from_profile(scaled_pair(field3d_trace, p)), psi0, t0, t1)
            paired = ode.evolve(build_subspace(1), *drive_pair(field3d_trace, p)[:2], psi0, t0, t1)
        assert apart.amplitudes.tobytes() == paired.amplitudes.tobytes()
        assert apart.diagnostics["nfev"] == paired.diagnostics["nfev"]

    def test_non_finite_coupling_raises_with_time(self):
        rhs = generated_rhs(build_subspace(1).couplings, Formula("{p}g", g=1.0),
                            Formula("{p}g", g=math.nan), 3)
        with pytest.raises(ConvergenceError, match="non-finite coupling") as err:
            rhs(2.5, [1 + 0j, 0j, 0j])
        assert err.value.t == 2.5

    @pytest.mark.parametrize("j", [2, 7, 12, 13])
    def test_non_finite_coupling_at_an_inner_stage(self, j):
        # atom A's trace spikes at stage j's time alone, where c g_a
        # overflows: the step raises there, with that time, through the
        # check of the inlined values, as the comprehension stages do
        t, h = 1.0, 0.25
        bad = t + h if j == 13 else t + getattr(dop853, f"C{j}") * h
        spike = CouplingTrace([bad - 1e-6, bad, bad + 1e-6], [0.0, 1e10, 0.0])
        g_a, g_b, c = drive_pair(spike, 1e300)
        assert math.isinf(c * 1e10)
        couplings = build_subspace(1).couplings
        y, k1 = [1 + 0j, 0j, 0j], [0j, -0.5j, 0j]
        steps = (kernel_step(couplings, g_a, g_b, 3, scaled=True),
                 comprehension_step(table_rhs(couplings, g_a, g_b, 3), [(0, 3)]))
        for step in steps:
            with pytest.raises(ConvergenceError, match="non-finite coupling") as err:
                step(t, h, y, k1, 1e-9, 1e-11)
            assert err.value.t == bad

    def test_real_trace_with_zero_crossings(self):
        # a real trace drives through the real branch of the trace's lines
        times = np.linspace(0.0, 1e-8, 41)
        trace = CouplingTrace(times, 2e9 * np.cos(5 * np.pi * times / 1e-8) + 0.4e9)
        g_a, g_b, _ = drive_pair(trace, -0.6)
        crossings = np.setdiff1d(g_a.breakpoints(*trace.window), times)
        assert not trace.is_complex and crossings.size == 5
        for n in (1, 2):
            h = build_subspace(n)
            check_matches_oracles(h.couplings, g_a, g_b, np.eye(h.dim)[0], *trace.window,
                                  min_steps=2 * len(times))


class TestKernelReuse:
    """Drives of one kind share one generated step: the step's text holds
    the drives' formulas, and every number of a run enters as a value, so
    a new run reuses the cached kernel instead of compiling its own."""

    @pytest.mark.parametrize("kind", ["real-trace", "complex-trace", "generic"])
    def test_runs_of_one_kind_share_one_kernel(self, kind):
        rng = np.random.default_rng(11)
        if kind == "generic":
            profile = GenericProfile(generic_family(velocity=433.0))
            profiles = [profile, profile.at_velocity(611.0)]
        else:
            def trace(n):
                values = rng.normal(size=n) + (1j * rng.normal(size=n) if kind == "complex-trace" else 0)
                return CouplingTrace(np.sort(rng.uniform(1e-9, 3e-9, n)), 1e9 * values)
            profiles = [trace(7), trace(12)]
        psi0 = AmplitudeVector.basis_state("100")
        infos, texts = [], []
        for profile, p in zip(profiles, (0.414, 0.7)):
            g_a, g_b, _ = drive_pair(profile, p)
            ode.evolve(build_subspace(1), g_a, g_b, psi0, *g_a.window, n_points=3)
            infos.append(dop853._kernel.cache_info())
            source = ode._source(build_subspace(1).couplings, g_a, g_b, 3, True)
            texts.append(generated_text(source, 3))
        assert infos[1].hits == infos[0].hits + 1 and infos[1].misses == infos[0].misses
        assert infos[1].currsize == infos[0].currsize
        assert texts[0] == texts[1]
        # the literals are the step's own: no value of either run
        literals = {node.value for node in ast.walk(ast.parse(texts[0]))
                    if isinstance(node, ast.Constant)}
        assert literals <= {0, 1, 2, 3, 0.01}
