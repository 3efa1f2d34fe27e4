"""The block budget moves no output.

Every array pass works in blocks of at most ``batch._BLOCK_SAMPLES`` stored
samples, read when called.  Each pass here gives, at a budget of 7 (one arc
a block) and of 150 (a few arcs a block), the bytes it gives at the default
budget (the gradient screen: its verdict and the point it names); the
inputs span several blocks at 150.  (The window maximum's own
test is ``test_hybrid_time.py``'s ``test_block_size_does_not_change_the_result``.)
Also the memory a block costs at the default budget, measured with
tracemalloc.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from hymem import batch
from hymem.batch import append_jumps, delayed_sq_integral, memory_windows, sup_norm_w
from hymem.builtin import (example1_razumikhin_certificate,
                           example2_krasovskii_certificate)
from hymem.certificates import (CertificateValidationError, check_gradient,
                                check_krasovskii)
from hymem.hybrid_time import (BatchView, History, HybridArc, HybridMemoryArc,
                               memory_arc_from_function)
from hymem.sampling import ArcSampler
from hymem.solver import SimOptions, flow_windows, simulate, verify_solution
from hymem.system import (DelayTerm, Example1Params, Example2Params, LinearDelayConfig,
                          build_example1, build_example2, build_linear_delay_system)

BUDGETS = [7, 150]


SYSTEMS = {"example1": build_example1(Example1Params.paper()),
           "example2-case2": build_example2(Example2Params.case2())}


def _arc_bytes(arc):
    return (arc.times.tobytes(), arc.values.tobytes(), tuple(arc.starts),
            arc.n_memory, None if arc.derivs is None else arc.derivs.tobytes(),
            None if arc.known is None else arc.known.tobytes(), arc.interpolation,
            getattr(arc, "delta", None))


def _at_budget(monkeypatch, budget, run):
    """run() with the block budget set to ``budget`` (None: the default)."""
    with monkeypatch.context() as m:
        if budget is not None:
            m.setattr(batch, "_BLOCK_SAMPLES", budget)
        return run()


def _same_at_every_budget(monkeypatch, run, budget, arcs=None):
    """run() gives the same result at ``budget`` as at the default; when
    given, ``arcs`` span several blocks at 150 stored samples."""
    if arcs is not None:
        with monkeypatch.context() as m:
            m.setattr(batch, "_BLOCK_SAMPLES", 150)
            assert len(list(batch._blocks(arcs))) > 2
    want = _at_budget(monkeypatch, None, run)
    assert _at_budget(monkeypatch, budget, run) == want
    return want


def _cover(name, region, count):
    sampler = ArcSampler(SYSTEMS[name][0], seed=3, mode="cover")
    return [s.arc for s in sampler.sample(region, count)]


def _mixed(name):
    """Flow, jump and post-jump cover arcs back to back."""
    return [arc for region in ("C", "D", "Gplus") for arc in _cover(name, region, 40)]


@pytest.mark.parametrize("budget", BUDGETS)
class TestArrayPasses:
    @pytest.mark.parametrize("lo, hi", [(-0.3, 0.0), (-0.21, -0.04)])
    @pytest.mark.parametrize("components", [None, slice(0, 1)])
    def test_delayed_sq_integral(self, monkeypatch, budget, lo, hi, components):
        arcs = _mixed("example2-case2")
        _same_at_every_budget(
            monkeypatch, lambda: delayed_sq_integral(arcs, lo, hi, components).tobytes(),
            budget, arcs)

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_append_jumps(self, monkeypatch, budget, name):
        arcs = _mixed(name)
        rng = np.random.default_rng(5)
        gs = rng.normal(size=(len(arcs), arcs[0].dimension))
        _same_at_every_budget(
            monkeypatch, lambda: [_arc_bytes(psi) for psi in append_jumps(arcs, gs)],
            budget, arcs)

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_memory_windows_on_a_store_of_many_rows(self, monkeypatch, budget, name):
        # a store per block of rows, each row cut at its head and halfway
        # along its newest level: every cut is what one store of all the
        # rows gives
        arcs = _mixed(name)
        delta = 0.25 * arcs[0].delta
        mid = [0.5 * arc.times.item(arc.starts[-1]) for arc in arcs]

        def cuts(stores):
            out = []
            for lo, hi in stores:
                points = [(r, t, 0) for r in range(hi - lo) for t in (0.0, mid[lo + r])]
                out += [_arc_bytes(w) for w in memory_windows(History(arcs[lo:hi]),
                                                              points, delta)]
            return out

        want = cuts([(0, len(arcs))])
        assert _same_at_every_budget(
            monkeypatch, lambda: cuts(batch._blocks(arcs)), budget, arcs) == want

    def test_flow_windows(self, monkeypatch, budget):
        # example 2 only: example 1's batch flow map is a matrix product,
        # whose bits may depend on the rows that come with a row (see
        # flow_windows), so a block of one arc may differ by an ulp
        spec, _ = SYSTEMS["example2-case2"]
        arcs = _cover("example2-case2", "C", 80)
        _same_at_every_budget(
            monkeypatch, lambda: [_arc_bytes(w) for w in flow_windows(spec, arcs, 1e-3)],
            budget, arcs)

    @pytest.mark.parametrize("name", list(SYSTEMS))
    @pytest.mark.parametrize("region", ["C", "D", "Gplus"])
    def test_sample(self, monkeypatch, budget, name, region):
        spec, _ = SYSTEMS[name]

        def draw():
            got = ArcSampler(spec, seed=4, mode="cover").sample(region, 120)
            return [(s.origin, _arc_bytes(s.arc)) for s in got]

        assert len(_same_at_every_budget(monkeypatch, draw, budget)) == 120

    def test_check_krasovskii(self, monkeypatch, budget):
        p = Example2Params.case2()
        spec, target = build_example2(p)
        cert, _ = example2_krasovskii_certificate(p)
        report = _same_at_every_budget(monkeypatch, lambda: check_krasovskii(
            spec, cert, ArcSampler(spec, seed=2, mode="cover"), samples=150,
            target=target).to_json_dict(), budget)
        assert report["conditions_evaluated"] > 300 and not report["violations"]

    @pytest.mark.parametrize("wrong", [False, True])
    def test_check_gradient(self, monkeypatch, budget, wrong):
        # 2n = 8 perturbed states a head: 18 heads a block at 150, and at 7
        # each head a block of its own
        p = Example1Params.paper()
        spec, _ = SYSTEMS["example1"]
        stock, _ = example1_razumikhin_certificate(p)
        sampler = ArcSampler(spec, seed=3, mode="cover")
        heads = np.array([s.arc.head for s in sampler.sample("C", 120)
                          + sampler.sample("D", 80)])
        rows = []

        def v_batch(arr):
            rows.append(len(arr))
            return stock.v_batch(arr)

        def grad_v(x):  # off where the first state exceeds its median when wrong
            g = np.array(stock.grad_v(x))
            g[0] += wrong * 1e-3 * (1.0 + abs(g[0])) * (x[0] > np.median(heads[:, 0]))
            return g

        cert = dataclasses.replace(stock, v_batch=v_batch, grad_v=grad_v)

        def screen():
            rows.clear()
            try:
                check_gradient(cert, heads)
            except CertificateValidationError as err:
                return str(err).split(" (|diff|")[0]  # the verdict and the point
            return None

        got = _same_at_every_budget(monkeypatch, screen, budget)
        assert (got is None) == (not wrong)
        assert max(rows) == (8 if budget == 7 else 144)


def _delay_horizon(t_max):
    """dx = -k x(t - r), k r = pi/2, from the history cos(k s + 0.7)."""
    r = 0.432
    k = np.pi / (2 * r)
    cfg = LinearDelayConfig(dimension=1, memory_size=r, a0=np.array([[0.0]]),
                            flow_delayed=(DelayTerm(r, np.array([[-k]])),))
    spec, _ = build_linear_delay_system(cfg)
    init = memory_arc_from_function(lambda s: np.array([np.cos(k * s + 0.7)]),
                                    r, depth=r, grid_step=0.01)
    return spec, simulate(spec, init, SimOptions(t_max=t_max, step=0.01))


@pytest.mark.parametrize("budget", BUDGETS)
class TestSolverPasses:
    def test_simulate(self, monkeypatch, budget):
        # the reads made ahead: a block holds at most the budget's rows, and
        # none is built below 16 steps (48 rows); 43 steps to the delay
        # bound a block at 129 rows
        rows = []
        at = BatchView._at

        def recording_at(view, tq):
            rows.append(tq.shape[0])
            return at(view, tq)

        monkeypatch.setattr(BatchView, "_at", recording_at)

        def run():
            rows.clear()
            return _arc_bytes(_delay_horizon(4.0)[1].arc), list(rows)

        want, built = _at_budget(monkeypatch, None, run)
        assert len(want[0]) == 8 * 446  # 45 samples of history, 401 computed
        assert max(built) == 129
        got, built = _at_budget(monkeypatch, budget, run)
        assert got == want
        assert max(built, default=0) <= budget and bool(built) == (budget >= 48)

    def test_verify_solution(self, monkeypatch, budget):
        spec, traj = _delay_horizon(4.0)
        arc = traj.arc
        values = arc.values.copy()
        values[[100, 151, 152, 300]] *= 1.01  # kinks in and across chunks
        forged = dataclasses.replace(traj, arc=HybridArc(
            arc.times, values, arc.starts, arc.n_memory, arc.derivs, arc.known,
            arc.interpolation))
        chunks = []
        flow_batch = spec.flow_batch

        def recording_batch(view):
            chunks.append(view.head.shape[0])
            return flow_batch(view)

        spec = dataclasses.replace(spec, flow_batch=recording_batch)
        for t in (traj, forged):
            report = _same_at_every_budget(monkeypatch, lambda: verify_solution(spec, t),
                                           budget)
            points = report.derivative_points_checked
            assert points > 300
            # the default's one chunk, then the budget's
            assert chunks[0] == points and max(chunks[1:]) <= budget
            assert len(chunks) == 1 + -(-points // budget)
            chunks.clear()
        assert report.issues

    def test_verify_solution_with_jumps(self, monkeypatch, budget):
        spec, _ = SYSTEMS["example1"]
        init = memory_arc_from_function(lambda s: np.array([1.0, 1.0, 0.0, 0.0]),
                                        spec.memory_size, depth=spec.memory_size + 0.5,
                                        grid_step=5e-3)
        traj = simulate(spec, init, SimOptions(t_max=2.0, step=5e-3))
        assert len(traj.jumps) >= 3
        _same_at_every_budget(monkeypatch, lambda: verify_solution(spec, traj), budget)


def _refining_windows(count):
    """Windows of 61 samples alternating between -1 and 2 (times 1 + i/1000):
    1 - x^2 peaks a third of the way along each interval, so every level
    refines all its rounds."""
    times = np.linspace(-1.0, 0.0, 61)
    x = np.where(np.arange(61) % 2, 2.0, -1.0)
    values = np.column_stack([x, np.zeros(61)])
    return [HybridMemoryArc(times, values * (1 + 1e-3 * i), [0], 0.5)
            for i in range(count)]


def _peak_bytes(run) -> int:
    """The tracemalloc peak of run(), above what was allocated before."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryAtTheDefaultBudget:
    """The peak of a pass is one block's, whatever the number of arcs: at
    16384 stored samples a block, about 11 MB for a window maximum whose
    every level refines all six rounds, and 1.5 MB for the delayed integral
    (numpy 2.4, 64-bit)."""

    fn = staticmethod(lambda x: 1.0 - x[:, 0] * x[:, 0])

    def test_window_maximum_refining_every_round(self, monkeypatch):
        windows = _refining_windows(2000)
        with monkeypatch.context() as m:
            m.setattr(batch, "_MAX_LEVELS", 5)
            fewer = sup_norm_w(windows[:1], self.fn)
        assert fewer < sup_norm_w(windows[:1], self.fn)  # the sixth round counts
        one = _peak_bytes(lambda: sup_norm_w(windows[:1000], self.fn))
        two = _peak_bytes(lambda: sup_norm_w(windows, self.fn))
        assert one < 14e6
        assert two < one + 100e3

    def test_delayed_sq_integral_on_full_blocks(self):
        full = batch._BLOCK_SAMPLES // 61
        windows = _refining_windows(3 * full)
        one = _peak_bytes(lambda: delayed_sq_integral(windows[:full], -0.5, 0.0))
        three = _peak_bytes(lambda: delayed_sq_integral(windows, -0.5, 0.0))
        assert one < 2e6
        assert three < one + 100e3
