"""System builders, guards, target sets, and the config schema."""

import dataclasses

import numpy as np
import pytest

from hymem.builtin import example2_feasibility
from hymem.hybrid_time import (BatchView, History, constant_memory_arc,
                               memory_arc_from_function)
from hymem.solver import SimOptions, _batch_map, simulate
from hymem.system import (ClockGuard, ConfigError, DelayTerm, Example1Params,
                          Example2Params, LinearDelayConfig, SystemSpec,
                          build_example1, build_example2,
                          build_linear_delay_system, constant_history,
                          history_from_config, parse_linear_delay_config)


def const_arc(values, delta, depth=None):
    return constant_memory_arc(np.asarray(values, dtype=float), delta,
                               depth=depth if depth is not None else delta + 0.4)


class TestExample1Builder:
    def test_paper_parameters_build(self):
        spec, target = build_example1(Example1Params.paper())
        assert spec.dimension == 4
        assert spec.memory_size == pytest.approx(0.01)

    @pytest.mark.parametrize("field", ["A", "B", "K"])
    def test_non_finite_matrix_entry_is_rejected(self, field):
        p = Example1Params.paper()
        bad = getattr(p, field).copy()
        bad[0, 0] = np.nan
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            dataclasses.replace(p, **{field: bad})

    def test_delay_must_be_smaller_than_period(self):
        with pytest.raises(ConfigError):
            Example1Params(A=[[1.0]], B=[[1.0]], K=[[1.0]], delta=0.1, r=0.2)

    def test_flow_at_origin_is_clock_only(self):
        spec, _ = build_example1(Example1Params.paper())
        phi = const_arc([0.0, 0.0, 0.0, 0.0], spec.memory_size)
        f = spec.flow_selection(phi)
        assert np.array_equal(f, np.array([0.0, 0.0, 0.0, 1.0]))

    def test_jump_applies_gain_to_delayed_measurement(self):
        p = Example1Params.paper()
        spec, _ = build_example1(p)
        z0 = np.array([0.3, -1.2])
        phi = const_arc([z0[0], z0[1], 0.7, p.delta], spec.memory_size)
        (g,) = spec.jump_selections(phi)
        assert np.allclose(g[:2], z0)
        assert g[2] == pytest.approx(float((p.K @ z0)[0]))
        assert g[3] == 0.0

    def test_guard_overlap_is_clock_boundary_only(self):
        p = Example1Params.paper()
        spec, _ = build_example1(p)
        for tau in (0.0, 0.1, 0.19, p.delta):
            phi = const_arc([1.0, 1.0, 0.0, tau], spec.memory_size)
            both = (spec.flow_guard(phi) >= 0) and (spec.jump_guard(phi) >= 0)
            assert both == (tau == p.delta)

    def test_target_set_reduction(self):
        p = Example1Params.paper()
        spec, target = build_example1(p)
        x = np.array([0.3, -0.4, 1.2, 0.15])
        assert target.dist(x) == pytest.approx(np.linalg.norm(x[:3]))
        x_out = np.array([0.0, 0.0, 0.0, p.delta + 0.5])
        assert target.dist(x_out) == pytest.approx(0.5)

    def test_sup_norm_reduction_on_window(self):
        from hymem.hybrid_time import sup_norm_w
        p = Example1Params.paper()
        spec, target = build_example1(p)
        phi = const_arc([0.6, -0.8, 0.0, 0.1], spec.memory_size)
        assert sup_norm_w([phi], target.dist_batch)[0] == pytest.approx(1.0)


class TestExample2Builder:
    def test_delay_free_reduction(self):
        # a = -1, b = 0 and identity resets: flow is dx = -x
        spec, _ = build_example2(Example2Params(a=-1.0, b=0.0, rho=1.0,
                                                r=0.1, delta=2.0))
        phi = const_arc([3.0, 0.5], spec.memory_size)
        f = spec.flow_selection(phi)
        assert f[0] == pytest.approx(-3.0)
        assert f[1] == 1.0

    def test_delayed_term_read_through_history(self):
        p = Example2Params(a=0.0, b=1.0, rho=1.0, r=0.3, delta=1.0)
        spec, _ = build_example2(p)
        phi = memory_arc_from_function(
            lambda s: np.array([np.sin(s), 0.2 + s]), spec.memory_size,
            depth=spec.memory_size + 0.3)
        f = spec.flow_selection(phi)
        assert f[0] == pytest.approx(np.sin(-0.3), abs=1e-4)

    def test_case2_instance_feasible(self):
        info = example2_feasibility(Example2Params.case2())
        # frozen closed-form inequality values for the short-period instance
        assert info.flow_form_value == pytest.approx(-0.5)
        assert info.flow_coupling_value == pytest.approx(0.25 - 0.0625)
        assert np.exp(-2.0 * 0.1) == pytest.approx(0.8187307530779818)
        assert info.jump_condition_value == pytest.approx(0.8187307530779818 - 0.5)
        assert info.feasible

    def test_case1_instance_feasible(self):
        info = example2_feasibility(Example2Params.case1())
        # (2a - sigma) e^(-sigma delta) + mu = -1.5 e^0.5 + 0.5
        want_form = -1.5 * np.exp(0.5) + 0.5
        assert info.flow_form_value == pytest.approx(want_form)
        assert info.flow_form_value == pytest.approx(-1.973, abs=5e-4)
        # -(form) * mu > b^2 e^(-2 sigma delta)
        assert -want_form * 0.5 > 0.0625 * np.exp(1.0)
        assert info.flow_coupling_value == pytest.approx(
            -want_form * 0.5 - 0.0625 * np.exp(1.0))
        # rho = 1.2 < e^(-sigma delta) = e^0.5
        assert 1.2 < np.exp(0.5)
        assert info.feasible

    def test_enlarged_period_breaks_jump_margin(self):
        p = Example2Params(a=0.5, b=0.25, rho=0.5, r=0.05, delta=0.75,
                           sigma=2.0, mu=0.5)
        info = example2_feasibility(p)
        assert p.rho >= np.exp(-p.sigma * p.delta)
        assert info.jump_margin < 0
        assert not info.feasible

    def test_memory_size_covers_delay_across_one_jump(self):
        p = Example2Params.case2()
        spec, _ = build_example2(p)
        assert spec.memory_size == pytest.approx(p.r + 1.0)


class TestLinearDelayBuilder:
    def test_pure_decay(self):
        cfg = LinearDelayConfig(dimension=1, memory_size=0.0,
                                a0=np.array([[-1.0]]))
        spec, target = build_linear_delay_system(cfg)
        phi = const_arc([2.0], 0.0, depth=0.0)
        assert spec.flow_selection(phi)[0] == pytest.approx(-2.0)
        assert spec.jump_guard(phi) < 0
        assert target.dist(np.array([2.0])) == 2.0

    # The stock builders are instances of the family; these pin them to the
    # paper's maps, written out, on random windows.

    @staticmethod
    def example2_windows(p, spec):
        rng = np.random.default_rng(6)
        for _ in range(100):
            vals = rng.normal(size=2)
            vals[1] = rng.uniform(0, p.delta)
            phi = memory_arc_from_function(
                lambda s, v=vals: np.array([v[0] * (1 + np.sin(3 * s)), v[1] + s]),
                spec.memory_size, depth=spec.memory_size + 0.2)
            yield phi, phi.head[0], phi.delayed(-p.r)[0]

    @staticmethod
    def example1_windows(p):
        rng = np.random.default_rng(7)
        for _ in range(100):
            base = rng.normal(size=3)
            phi = memory_arc_from_function(
                lambda s, v=base: np.concatenate([v * (1 + 0.3 * s), [p.delta + s]]),
                p.r, depth=p.r + 0.1)
            yield phi, phi.head[:2], phi.head[2:3], phi.delayed(-p.r)[:2]

    def test_reproduces_example2_flow(self):
        # dx = a x + b x(t - r), dtau = 1
        p = Example2Params.case2()
        spec, _ = build_example2(p)
        for phi, x, xr in self.example2_windows(p, spec):
            assert np.array_equal(spec.flow_selection(phi),
                                  [p.a * x + p.b * xr, 1.0])

    def test_reproduces_example2_jumps(self):
        # x+ = rho x, tau+ = 0
        p = Example2Params.case2()
        spec, _ = build_example2(p)
        for phi, x, _ in self.example2_windows(p, spec):
            assert np.array_equal(spec.jump_selections(phi), [[p.rho * x, 0.0]])

    def test_reproduces_example1_flow(self):
        # (dz, du, dtau) = (A z + B u, 0, 1), up to rounding: the family forms
        # one product A0 x where the paper's form sums two
        p = Example1Params.paper()
        spec, _ = build_example1(p)
        for phi, z, u, _ in self.example1_windows(p):
            f = spec.flow_selection(phi)
            ulps = 4 * np.spacing(np.abs(p.A) @ np.abs(z) + np.abs(p.B) @ np.abs(u))
            assert np.all(np.abs(f[:2] - (p.A @ z + p.B @ u)) <= ulps)
            assert np.array_equal(f[2:], [0.0, 1.0])

    def test_reproduces_example1_jumps(self):
        # (z, u, tau)+ = (z, K z(-r), 0)
        p = Example1Params.paper()
        spec, _ = build_example1(p)
        for phi, z, _, zr in self.example1_windows(p):
            assert np.array_equal(spec.jump_selections(phi),
                                  [np.concatenate([z, p.K @ zr, [0.0]])])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            build_linear_delay_system(LinearDelayConfig(
                dimension=2, memory_size=0.5, a0=np.eye(3)))

    @pytest.mark.parametrize("cfg, field", [
        (dict(a0=np.array([[np.nan]])), "flow.A0"),
        (dict(a0=np.array([[0.0]]), jump_period=0.1, j0=np.array([[np.inf]])),
         "jump.J0"),
        (dict(a0=np.array([[0.0]]),
              flow_delayed=(DelayTerm(0.1, np.array([[-np.inf]])),)),
         r"flow.delayed\[0\] matrix"),
        (dict(a0=np.array([[0.0]]), jump_period=0.1,
              jump_delayed=(DelayTerm(0.1, np.array([[np.nan]])),)),
         r"jump.delayed\[0\] matrix"),
    ], ids=["A0", "J0", "flow-delayed", "jump-delayed"])
    def test_non_finite_matrix_entry_is_rejected(self, cfg, field):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            build_linear_delay_system(LinearDelayConfig(
                dimension=1, memory_size=0.5, **cfg))

    def test_delay_beyond_memory_rejected(self):
        with pytest.raises(ConfigError):
            build_linear_delay_system(LinearDelayConfig(
                dimension=1, memory_size=0.5, a0=np.array([[0.0]]),
                flow_delayed=(DelayTerm(0.8, np.array([[1.0]])),)))


def batch_of_run(spec, state, t_max):
    """The batch window at every forward sample of a run from a constant
    history, and the flow selection on each sample's own window."""
    init = constant_memory_arc(np.asarray(state, dtype=float), spec.memory_size,
                               depth=spec.memory_size + 0.5, grid_step=0.02)
    traj = simulate(spec, init, SimOptions(t_max=t_max, step=5e-3))
    hist = History([traj.arc], spec.memory_size)
    batch = BatchView(hist, np.arange(hist.starts[hist.n_memory], hist.n))
    return batch, np.array([spec.flow_selection(v) for v in batch.views()])


class TestFlowBatch:
    @pytest.mark.parametrize("build, state, t_max", [
        (lambda: build_example2(Example2Params.case1()), [1.0, 0.0], 3.5),
        (lambda: build_example2(Example2Params.case2()), [1.0, 0.0], 0.5),
        (lambda: build_linear_delay_system(LinearDelayConfig(
            dimension=1, memory_size=0.3, a0=np.array([[0.0]]),
            flow_delayed=(DelayTerm(0.3, np.array([[-2.0]])),
                          DelayTerm(0.05, np.array([[0.5]]))))), [1.0], 2.0),
    ], ids=["example2-case1", "example2-case2", "two-delays"])
    def test_rows_equal_the_scalar_map_for_one_component(self, build, state,
                                                         t_max):
        # with n = 1 each entry is one product per term, summed in the
        # scalar map's order
        spec, _ = build()
        batch, rows = batch_of_run(spec, state, t_max)
        assert rows.shape[0] > 90
        assert spec.flow_batch(batch).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("build, state, t_max", [
        (lambda: build_example1(Example1Params.paper()), [1.0, -2.0, 0.5, 0.0], 2.0),
        (lambda: build_linear_delay_system(LinearDelayConfig(
            dimension=3, memory_size=0.3,
            a0=np.array([[-1.0, 0.3, 0.1], [0.2, -0.7, 1.0 / 3], [0.0, 0.4, -0.2]]),
            flow_delayed=(DelayTerm(0.3, np.array([[0.1, -0.2, 0.7], [0.3, 0.1, 0.0],
                                                   [-0.5, 0.2, 0.1]])),
                          DelayTerm(0.05, np.eye(3) / 7)))), [1.0, -0.3, 0.2], 1.5),
    ], ids=["example1", "three-components"])
    def test_rows_equal_the_scalar_map_on_several_components(self, build, state,
                                                             t_max):
        # the batch map sums by column accumulation in the scalar map's
        # order, so each row is the scalar value bit for bit
        spec, _ = build()
        batch, rows = batch_of_run(spec, state, t_max)
        assert rows.shape[0] > 90
        assert spec.flow_batch(batch).tobytes() == rows.tobytes()

    def test_default_evaluates_each_row(self):
        spec = SystemSpec(dimension=1, memory_size=0.1,
                          flow_guard=lambda w: 1.0, jump_guard=lambda w: -1.0,
                          flow_selection=lambda w: w.head - 3 * w.delayed(-0.1),
                          jump_selections=lambda w: [])
        assert spec.flow_batch is None
        batch, rows = batch_of_run(spec, [1.0], 1.0)
        assert _batch_map(spec)(batch).tobytes() == rows.tobytes()
        # no batch map means the flow selection row by row, read when
        # called: a replaced selection is the one evaluated
        doubled = dataclasses.replace(
            spec, flow_selection=lambda w: 2 * spec.flow_selection(w))
        assert doubled.flow_batch is None
        assert _batch_map(doubled)(batch).tobytes() == (2 * rows).tobytes()

    def test_a_spec_holds_only_the_maps_it_is_given(self):
        # no flow candidates and no map bound at construction; the
        # linear-delay family's matrices are its flow selection
        assert [f.name for f in dataclasses.fields(SystemSpec)] == [
            "dimension", "memory_size", "flow_guard", "jump_guard",
            "flow_selection", "jump_selections", "flow_batch", "flow_linear",
            "meta"]
        assert not hasattr(SystemSpec, "__post_init__")


#: Clock values at and around both edges of C, and past them.
CLOCKS = [0.0, -0.0, 5e-324, -1e-8, -1e-7, -2e-7, 0.1, 0.2 - 1e-17, 0.2,
          0.2 + 1e-8, 0.2 + 2e-7, 1e308, -1e308, np.inf, -np.inf, np.nan]


class TestClockGuard:
    @pytest.mark.parametrize("clocked", [False, True], ids=["unclocked", "clocked"])
    def test_the_family_s_guards_read_only_the_clock(self, clocked):
        # at, rows and the call on a window give one value, bit for bit
        cfg = LinearDelayConfig(dimension=2, memory_size=0.0, a0=-np.eye(2),
                                jump_period=0.2 if clocked else None)
        spec, _ = build_linear_delay_system(cfg)
        for guard in (spec.flow_guard, spec.jump_guard):
            assert isinstance(guard, ClockGuard)
            assert guard.clock == (2 if clocked else None)
            states = np.array([[0.5, -1.0, tau] for tau in CLOCKS])
            got = guard.rows(states)
            for row, value in zip(states, got.tolist()):
                want = guard(const_arc(row[:spec.dimension], 0.0))
                assert type(want) is float
                assert np.array([value]).tobytes() == np.array([want]).tobytes()
                assert np.array([guard.at(row[2] if clocked else None)]).tobytes() \
                    == np.array([want]).tobytes()

    def test_the_formulas(self):
        spec, _ = build_example2(Example2Params.case2())
        fg, jg = spec.flow_guard, spec.jump_guard
        assert (fg.at(0.03), fg.at(0.09), fg.at(-0.01)) == (0.03, 0.1 - 0.09, -0.01)
        assert (jg.at(0.1), jg.at(0.07), jg.at(0.12)) == (-0.0, -(0.1 - 0.07),
                                                         -abs(0.1 - 0.12))


class TestConfigSchema:
    def good_doc(self):
        return {
            "dimension": 1,
            "memory_size": 1.1,
            "flow": {"A0": [[0.5]], "delayed": [{"delay": 0.05, "A": [[0.25]]}]},
            "jump": {"period": 0.1, "J0": [[0.5]]},
            "target_set": "origin_times_clock",
            "initial_history": {"kind": "constant", "value": [1.0, 0.0]},
            "sim": {"t_max": 5.0, "step": 0.002},
        }

    def test_valid_document(self):
        cfg, extras = parse_linear_delay_config(self.good_doc())
        spec, target = build_linear_delay_system(cfg)
        assert spec.dimension == 2
        assert "initial_history" in extras and "sim" in extras

    def test_unknown_top_level_field(self):
        doc = self.good_doc()
        doc["frobnicate"] = 1
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_linear_delay_config(doc)

    def test_unknown_nested_field(self):
        doc = self.good_doc()
        doc["flow"]["B0"] = [[1.0]]
        with pytest.raises(ConfigError, match="B0"):
            parse_linear_delay_config(doc)

    def test_missing_required_field(self):
        doc = self.good_doc()
        del doc["flow"]
        with pytest.raises(ConfigError, match="flow"):
            parse_linear_delay_config(doc)

    def test_bad_target_set(self):
        doc = self.good_doc()
        doc["target_set"] = "nowhere"
        cfg, _ = parse_linear_delay_config(doc)
        with pytest.raises(ConfigError, match="target_set must be 'origin' or"):
            build_linear_delay_system(cfg)

    def built(self, doc):
        cfg, extras = parse_linear_delay_config(doc)
        spec, _ = build_linear_delay_system(cfg)
        return extras["initial_history"], spec

    def test_history_from_config_constant(self):
        hist, spec = self.built(self.good_doc())
        arc = history_from_config(hist, spec, 0.002)
        assert arc.membership_violation() is None
        assert np.array_equal(arc.head, np.array([1.0, 0.0]))
        # the --history arc: depth memory_size + 0.5 on a grid of 4 steps
        same = constant_history(spec, [1.0, 0.0], 0.002)
        assert arc.times.tobytes() == same.times.tobytes()
        assert arc.values.tobytes() == same.values.tobytes()
        assert arc.times[0] == -spec.memory_size - 0.5
        assert np.allclose(np.diff(arc.times), 0.008, rtol=0, atol=1e-12)

    def test_history_from_config_samples(self):
        doc = self.good_doc()
        doc["initial_history"] = {
            "kind": "samples",
            "points": [[-1.2, 0.5, 0.0], [0.0, 1.5, 0.0]],
        }
        arc = history_from_config(*self.built(doc), 0.002)
        assert arc.head[0] == pytest.approx(1.5)
        assert arc.delayed(-0.6)[0] == pytest.approx(1.0, abs=1e-6)

    def test_history_from_config_reads_its_own_rows(self):
        # the row at -0.123 reads back as given, not as a grid interpolates it
        doc = {"dimension": 1, "memory_size": 0.5,
               "flow": {"A0": [[-1.0]], "delayed": [{"delay": 0.5, "A": [[0.5]]}]},
               "initial_history": {"kind": "samples", "points": [
                   [-0.5, 1.0], [-0.123, 3.0], [0.0, 2.0]]}}
        arc = history_from_config(*self.built(doc), 0.01)
        assert arc.delayed(-0.123)[0] == 3.0
        assert arc.delayed(-0.5)[0] == 1.0 and arc.head[0] == 2.0

    def test_history_from_config_is_the_arc_of_its_rows(self):
        # the rows, sorted, are the arc's samples: no grid and no
        # extension past the oldest row
        doc = {"dimension": 1, "memory_size": 0.0005, "flow": {"A0": [[-1.0]]},
               "initial_history": {"kind": "samples",
                                   "points": [[0.0, 2.0], [-0.0005, 1.0]]}}
        arc = history_from_config(*self.built(doc), 0.01)
        assert arc.times.tolist() == [-0.0005, 0.0]
        assert arc.values.tolist() == [[1.0], [2.0]]
        assert arc.starts == [0] and arc.delta == 0.0005
        assert arc.delayed(-0.00025)[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("points, reason", [
        ([[-0.5, 1.0], [-0.1, 2.0]], "memory domain must end at t = 0"),
        ([[-0.5, 1.0], [0.0, 2.0], [0.25, 3.0]], "rows must have s <= 0"),
        ([[-0.5, 1.0], [1e-13, 2.0]], "rows must have s <= 0"),
        ([[-0.5, 1.0], [-5e-13, 2.0], [0.0, 3.0]], "only the last row may lie"),
        ([[-0.3, 1.0], [0.0, 2.0]], "some point must satisfy s \\+ k <= -delta"),
        ([[-1.6, 1.0], [0.0, 2.0]], "< -delta - 1"),
    ], ids=["no-row-at-zero", "row-after-zero", "row-just-after-zero",
            "two-rows-at-zero", "too-shallow", "too-deep"])
    def test_history_from_config_refuses_rows_no_arc_holds(self, points, reason):
        doc = {"dimension": 1, "memory_size": 0.5, "flow": {"A0": [[-1.0]]},
               "initial_history": {"kind": "samples", "points": points}}
        hist, spec = self.built(doc)
        with pytest.raises(ConfigError, match=f"^initial_history.points: .*{reason}"):
            history_from_config(hist, spec, 0.01)
        # the edges themselves, up to TIME_TOL, are held; a last row just
        # before s = 0 is taken at s = 0, where the forward side starts
        arc = history_from_config({"kind": "samples", "points": [
            [-1.5 - 1e-13, 1.0], [-0.5, 1.0], [-1e-13, 2.0]]}, spec, 0.01)
        assert arc.times.tolist() == [-1.5 - 1e-13, -0.5, 0.0]

    def test_history_from_config_needs_two_rows(self):
        # one row would be a one-sample memory side, which no CSV can hold
        hist, spec = self.built({"dimension": 1, "memory_size": 0.0,
                                 "flow": {"A0": [[-1.0]]},
                                 "initial_history": {"kind": "samples",
                                                     "points": [[0.0, 1.0]]}})
        with pytest.raises(ConfigError, match="must list at least two rows"):
            history_from_config(hist, spec, 0.01)

    def test_history_from_config_rejects_a_repeated_time(self):
        doc = self.good_doc()
        doc["initial_history"] = {
            "kind": "samples",
            "points": [[-1.2, 0.5, 0.0], [-0.6, 1.0, 0.0], [-0.6, 2.0, 0.0],
                       [0.0, 1.5, 0.0]],
        }
        with pytest.raises(ConfigError, match="must not repeat a time s"):
            history_from_config(*self.built(doc), 0.002)
