import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtune.encoder_bridge import SyntheticClipModel, SyntheticEncoder
from rdtune.errors import BracketError, EncodeFailure
from rdtune.lambda_model import CodecId, FrameTypeGroup
from rdtune.scalar_opt import (
    Bracket,
    OptimizerConfig,
    bracket_minimum,
    brent_minimize,
)
from rdtune.sweep import SweepConfig, optimize_clip

import oracles


def quadratic(x):
    return (x - 2.5) ** 2


def make_bracket(f, a, b, c):
    return Bracket(a=a, b=b, c=c, fa=f(a), fb=f(b), fc=f(c))


def random_unimodal_quartic(rng):
    """f(x) = (x - m)^2 * (1 + q*(x - m)^2): single minimum at m."""
    m = rng.uniform(-2.5, 2.5)
    q = rng.uniform(0.05, 2.0)
    return (lambda x: (x - m) ** 2 * (1.0 + q * (x - m) ** 2)), m


class TestBracketType:
    def test_valid(self):
        br = make_bracket(quadratic, 0.0, 2.0, 5.0)
        assert br.a < br.b < br.c

    def test_unordered_rejected(self):
        with pytest.raises(BracketError):
            Bracket(a=2.0, b=1.0, c=3.0, fa=1.0, fb=0.5, fc=1.0)

    def test_midpoint_not_lowest_rejected(self):
        with pytest.raises(BracketError):
            Bracket(a=0.0, b=1.0, c=2.0, fa=0.0, fb=0.5, fc=1.0)


class TestBracketMinimum:
    def test_quadratic_contains_minimum(self):
        br = bracket_minimum(quadratic, 0.5, 1.0)
        assert br.a < 2.5 < br.c
        assert br.fb < br.fa and br.fb < br.fc

    def test_expands_leftwards(self):
        br = bracket_minimum(quadratic, 6.0, 5.0)
        assert br.a < 2.5 < br.c

    def test_monotone_fails(self):
        with pytest.raises(BracketError):
            bracket_minimum(lambda x: x, 0.0, 1.0)

    def test_domain_edge_fails(self):
        # Still descending at the clamp boundary.
        with pytest.raises(BracketError):
            bracket_minimum(lambda x: -x, 0.0, 1.0, lo=-5.0, hi=5.0)

    def test_equal_seeds_rejected(self):
        with pytest.raises(BracketError):
            bracket_minimum(quadratic, 1.0, 1.0)

    def test_tie_on_the_step_grid_still_brackets(self):
        # From seeds 6 and 5 the steps reach 3 and 2, which tie at 0.25: the
        # bracket ties at one end, and Brent still finds the minimum inside.
        br = bracket_minimum(quadratic, 6.0, 5.0)
        assert (br.a, br.b, br.c) == (2.0, 3.0, 4.0)
        assert br.fa == br.fb < br.fc
        x, _, trace = brent_minimize(quadratic, br, OptimizerConfig())
        assert x == pytest.approx(2.5, abs=1e-3)
        assert all(br.a < u < br.c for u, _ in trace.evaluations)

    def test_flat_bracket_rejected(self):
        with pytest.raises(BracketError):
            Bracket(a=0.0, b=1.0, c=2.0, fa=0.5, fb=0.5, fc=0.5)

    @pytest.mark.parametrize(
        "f, x0, x1, lo, hi, expected",
        [
            # The k search's window and seeds: the octaves of k.
            (lambda x: -x, 0.0, math.log(2.0), math.log(1 / 16), math.log(16.0),
             [0.0, math.log(2.0), math.log(4.0), math.log(8.0), math.log(16.0)]),
            (lambda x: x, math.log(2.0), 0.0, math.log(1 / 16), math.log(16.0),
             [math.log(2.0), 0.0, math.log(0.5), math.log(0.25), math.log(0.125),
              math.log(1 / 16)]),
            # The fallback from k = 2^(1/2) steps onto k = 2 and its octaves.
            (lambda x: -x, math.log(2.0) / 2, 0.0, math.log(1 / 16), math.log(16.0),
             [math.log(2.0) / 2, 0.0] + [j * math.log(2.0) / 2 for j in range(2, 9)]),
            # A spacing that does not divide the window is clamped at its edge.
            (lambda x: -x, 0.0, 1.5, -4.0, 4.0, [0.0, 1.5, 3.0, 4.0]),
        ],
        ids=["octaves_up", "octaves_down", "half_octaves_up", "clamped"],
    )
    def test_probes_follow_the_seed_spacing_and_clamp_at_the_edge(
        self, f, x0, x1, lo, hi, expected
    ):
        probes = []

        def g(x):
            probes.append(x)
            return f(x)

        with pytest.raises(BracketError, match="domain edge"):
            bracket_minimum(g, x0, x1, lo=lo, hi=hi)
        assert probes == pytest.approx(expected, rel=1e-15, abs=1e-15)
        assert probes[-1] in (lo, hi)

    def test_synthetic_cost_bracket_contains_oracle_argmin(self):
        log_argmin = math.log(oracles.GRID_ARGMIN_K)
        f = lambda x: oracles.cost_dense(math.exp(x))
        br = bracket_minimum(
            f, math.log(0.5), math.log(1.0),
            lo=math.log(1.0 / 16.0), hi=math.log(16.0),
        )
        assert br.a < log_argmin < br.c


class TestBrent:
    def test_quadratic(self):
        config = OptimizerConfig(xtol=1e-4, max_iters=100)
        x, fx, trace = brent_minimize(quadratic, make_bracket(quadratic, 0.1, 1.0, 10.0), config)
        assert x == pytest.approx(2.5, abs=1e-3)
        assert trace.converged

    def test_first_step_is_bracket_parabola(self):
        # The bracket's three points fit this quadratic exactly, so the
        # first probe is its minimum rather than a golden-section step.
        f = lambda x: (x - 0.3) ** 2
        _, _, trace = brent_minimize(f, make_bracket(f, -1.0, 0.0, 1.0), OptimizerConfig())
        assert trace.evaluations[0][0] == pytest.approx(0.3, abs=1e-12)

    def test_second_step_can_be_parabolic(self):
        # The step history starts at the bracket width, so the second step
        # is also tried as the vertex of the parabola through (x, w, v): the
        # three lowest of the four evaluated points.
        f = lambda x: math.exp(x) - 2.0 * x
        br = make_bracket(f, 0.0, 1.0, 3.0)
        _, _, trace = brent_minimize(f, br, OptimizerConfig())
        evaluated = [(br.fa, br.a), (br.fb, br.b), (br.fc, br.c), trace.evaluations[0][::-1]]
        (fx, x), (fw, w), (fv, v) = sorted(evaluated)[:3]
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        vertex = x - 0.5 * ((x - v) * q - (x - w) * r) / (q - r)
        assert trace.evaluations[1][0] == pytest.approx(vertex, abs=1e-12)
        assert abs(vertex - math.log(2.0)) < 0.05

    def test_cosine(self):
        config = OptimizerConfig(xtol=1e-6, max_iters=100)
        x, fx, trace = brent_minimize(math.cos, make_bracket(math.cos, 2.0, 3.0, 4.0), config)
        assert x == pytest.approx(math.pi, abs=1e-5)
        assert fx == pytest.approx(-1.0, abs=1e-9)

    def test_golden_oracle_agreement(self):
        rng = np.random.default_rng(101)
        config = OptimizerConfig(xtol=1e-4, max_iters=200)
        for _ in range(50):
            f, m = random_unimodal_quartic(rng)
            br = bracket_minimum(f, m - 3.0 + rng.uniform(0.0, 1.0), m - 1.5)
            x, fx, trace = brent_minimize(f, br, config)
            x_gold = oracles.golden_min(f, br.a, br.c)
            assert abs(x - x_gold) <= 2.0 * config.xtol * max(1.0, abs(x))
            assert abs(x - m) <= 2.0 * config.xtol * max(1.0, abs(m))

    def test_all_evaluations_inside_bracket(self):
        rng = np.random.default_rng(7)
        config = OptimizerConfig(xtol=1e-5, max_iters=100)
        for _ in range(25):
            f, m = random_unimodal_quartic(rng)
            br = bracket_minimum(f, m - 2.0, m - 1.0)
            _, _, trace = brent_minimize(f, br, config)
            for x, _ in trace.evaluations:
                assert br.a < x < br.c

    def test_best_evaluated_guarantee(self):
        config = OptimizerConfig(xtol=1e-4, max_iters=100)
        f, _ = random_unimodal_quartic(np.random.default_rng(13))
        br = bracket_minimum(f, -3.0, -2.0)
        x, fx, trace = brent_minimize(f, br, config)
        evaluated = [br.fa, br.fb, br.fc] + [v for _, v in trace.evaluations]
        assert fx == min(evaluated)
        assert fx == f(x)

    def test_convergence_on_convex_family(self):
        rng = np.random.default_rng(37)
        config = OptimizerConfig(xtol=1e-3, max_iters=50)
        for _ in range(100):
            f, m = random_unimodal_quartic(rng)
            br = bracket_minimum(f, m + rng.uniform(0.5, 3.0), m + rng.uniform(3.5, 5.0))
            x, _, trace = brent_minimize(f, br, config)
            assert trace.converged
            assert len(trace.evaluations) <= 50

    def test_iteration_cap_returns_unconverged(self):
        config = OptimizerConfig(xtol=1e-15, max_iters=3)
        x, fx, trace = brent_minimize(quadratic, make_bracket(quadratic, 0.1, 1.0, 10.0), config)
        assert not trace.converged
        assert len(trace.evaluations) == 3
        assert fx <= quadratic(1.0)

    def test_iterations_counts_evaluations(self):
        # The trace holds every call brent_minimize makes to f, in order.
        config = OptimizerConfig(xtol=1e-4, max_iters=40)
        calls = []

        def f(x):
            calls.append(x)
            return quadratic(x)

        _, _, trace = brent_minimize(f, make_bracket(quadratic, 0.1, 1.0, 10.0), config)
        assert len(trace.evaluations) == len(calls)
        assert [x for x, _ in trace.evaluations] == calls


class TestFtol:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.floats(-3.0, 3.0),
        scale=st.floats(0.01, 100.0),
        skew=st.floats(-3.0, 3.0),
        quartic=st.floats(0.01, 2.0),
        seed=st.floats(-4.0, 4.0),
        step=st.floats(0.2, 2.0),
        ftol=st.floats(1e-6, 1.0),
    )
    def test_trace_is_a_prefix_of_the_ftol_zero_trace(
        self, m, scale, skew, quartic, seed, step, ftol
    ):
        # Smooth and unimodal, with its minimum at m; skew makes it asymmetric.
        def f(x):
            t = x - m
            return scale * (math.exp(skew * t) - skew * t - 1.0 + quartic * t**4)

        br = bracket_minimum(f, m + seed, m + seed + step)
        _, _, full = brent_minimize(f, br, OptimizerConfig(xtol=1e-4))
        x, fx, trace = brent_minimize(f, br, OptimizerConfig(xtol=1e-4, ftol=ftol))
        n = len(trace.evaluations)
        assert trace.evaluations == full.evaluations[:n]
        evaluated = [(br.fa, br.a), (br.fb, br.b), (br.fc, br.c)]
        evaluated += [(fu, u) for u, fu in trace.evaluations]
        assert (fx, x) in evaluated and fx == min(fu for fu, _ in evaluated)
        if n < len(full.evaluations):
            assert trace.converged

    def test_stops_without_probing_the_vertex(self):
        # The bracket's points fit this quadratic exactly, so its parabola
        # predicts the true gain, 0.09, at the vertex x = 0.3.
        f = lambda x: (x - 0.3) ** 2
        br = make_bracket(f, -1.0, 0.0, 1.0)
        x, fx, trace = brent_minimize(f, br, OptimizerConfig(ftol=0.1))
        assert trace.converged and trace.evaluations == []
        assert (x, fx) == (0.0, f(0.0))
        _, _, trace = brent_minimize(f, br, OptimizerConfig(ftol=0.08))
        assert trace.evaluations[0][0] == pytest.approx(0.3, abs=1e-12)

    def test_stops_after_two_probes_below_ftol(self):
        # A ripple of 0.01 on a quadratic: near the minimum most probes gain
        # less than ftol on the best cost so far.  Its ftol = 0 trace has
        # such a stall at probe 2, then one at 4 and 5 in a row, where the
        # ftol > 0 search stops.
        f = lambda x: (x - 0.3) ** 2 + 0.01 * math.sin(25.0 * x)
        br = make_bracket(f, -1.0, 0.5, 2.0)
        ftol = 1e-4
        _, _, full = brent_minimize(f, br, OptimizerConfig())
        stalls, best = [], br.fb
        for _, fu in full.evaluations:
            stalls.append(fu > best - ftol)
            best = min(best, fu)
        assert stalls[:5] == [False, True, False, True, True]
        assert len(full.evaluations) > 5
        _, _, trace = brent_minimize(f, br, OptimizerConfig(ftol=ftol))
        assert trace.converged
        assert trace.evaluations == full.evaluations[:5]


class TestOptimizerConfig:
    def test_ftol_default_is_zero(self):
        assert OptimizerConfig().ftol == 0.0

    @pytest.mark.parametrize("ftol", [-1.0, math.nan, math.inf])
    def test_ftol_validation(self, ftol):
        with pytest.raises(ValueError, match="ftol"):
            OptimizerConfig(ftol=ftol)

    def test_defaults(self):
        config = OptimizerConfig()
        assert config.xtol == 1e-4
        assert config.max_iters == 50

    @pytest.mark.parametrize("kwargs", [dict(xtol=0.0), dict(xtol=-1.0), dict(max_iters=2)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TwiceFailingAtTwo(SyntheticEncoder):
    """Fails the first two encodes at qp 49 and k = 2, the first attempt
    and the sweep's retry; a later encode there would succeed."""

    def __init__(self):
        super().__init__({"clip": SyntheticClipModel()})
        self.attempts_at_two = 0

    def measure(self, job):
        if job.qp == 49 and job.k == 2.0:
            self.attempts_at_two += 1
            if self.attempts_at_two <= 2:
                with self._count_lock:
                    self.invocations += 1
                raise EncodeFailure("injected transient failure")
        return super().measure(job)


class TestSearchBracket:
    """The k search's brackets, from the seeds k = 2 and k = 1 and then
    from each fallback's first probe, at their seeds' spacing."""

    def test_fallback_does_not_probe_a_failed_k_again(self):
        # The k = 2 probe fails after its retry.  The 2^(1/2) fallback gains,
        # and its next step is k = 2: the search re-raises the first failure
        # with no fresh encode, where a second sweep would have succeeded.
        backend = TwiceFailingAtTwo()
        config = SweepConfig(codec=CodecId.AV1, group=FrameTypeGroup.KF_GF_ARF)
        result = optimize_clip("clip", config, backend)
        assert [t.k for t in result.trials] == [1.0, pytest.approx(2 ** 0.5, rel=1e-12)]
        assert result.stop_reason == "failed_probe"
        assert backend.attempts_at_two == 2
        assert result.total_invocations == 5 + (5 + 1)
        assert backend.invocations == 5 + result.total_invocations
