"""Tests for cost-based temporal join planning."""

import pytest

from repro.model import TE_ASC, TS_ASC
from repro.optimizer import CostModel, TemporalJoinPlanner, expected_workspace_for
from repro.stats import collect_statistics
from repro.streams import TemporalOperator, contain_predicate
from repro.workload import PoissonWorkload, fixed_duration


def make_relation(n, rate=0.5, duration=20, name="R", seed=1):
    return PoissonWorkload(
        n, rate, fixed_duration(duration), name=name
    ).generate(seed)


@pytest.fixture
def planner():
    return TemporalJoinPlanner()


class TestCostModel:
    def test_pages(self):
        model = CostModel(page_capacity=10)
        assert model.pages(0) == 0
        assert model.pages(1) == 1
        assert model.pages(10) == 1
        assert model.pages(11) == 2

    def test_sort_cost_grows_superlinearly_in_passes(self):
        model = CostModel(page_capacity=4, sort_memory_pages=2)
        small = model.sort_cost(8)
        large = model.sort_cost(800)
        assert large > 100 * small / 8  # more passes, not just more pages

    def test_nested_loop_dominates_for_large_inputs(self):
        model = CostModel()
        assert model.nested_loop_cost(1000, 1000) > model.sort_cost(
            1000
        ) * 2 + model.stream_pass_cost(1000, 1000, 50)

    def test_zero_tuples(self):
        model = CostModel()
        assert model.sort_cost(0) == 0.0
        assert model.scan_cost(0) == 0.0


class TestExpectedWorkspace:
    def test_state_class_ordering(self):
        x = collect_statistics(make_relation(500))
        y = collect_statistics(make_relation(500, seed=2))
        d = expected_workspace_for("d", x, y)
        c = expected_workspace_for("c", x, y)
        a = expected_workspace_for("a", x, y)
        bad = expected_workspace_for("-", x, y)
        assert d == 0.0
        assert d < c < a < bad
        assert bad == 1000.0


class TestPlannerChoices:
    def test_large_inputs_choose_stream(self, planner):
        x = make_relation(600, name="X")
        y = make_relation(600, name="Y", seed=2)
        choice = planner.choose(TemporalOperator.CONTAIN_JOIN, x, y)
        assert choice.kind == "stream"

    def test_tiny_inputs_choose_nested_loop(self, planner):
        x = make_relation(4, name="X")
        y = make_relation(4, name="Y", seed=2)
        choice = planner.choose(TemporalOperator.CONTAIN_JOIN, x, y)
        assert choice.kind == "nested-loop"

    def test_existing_order_avoids_sort(self, planner):
        x = make_relation(600, name="X").sorted_by(TS_ASC)
        y = make_relation(600, name="Y", seed=2).sorted_by(TS_ASC)
        choice = planner.choose(TemporalOperator.CONTAIN_JOIN, x, y)
        assert choice.kind == "stream"
        assert not choice.sort_x and not choice.sort_y
        assert str(choice.entry.x_order) == "ValidFrom^"

    def test_interesting_order_tips_the_choice(self, planner):
        """With Y already ValidTo-sorted, the (TS^, TE^) entry wins the
        tie because it needs one fewer sort — the 'interesting orders'
        effect."""
        x = make_relation(600, name="X").sorted_by(TS_ASC)
        y = make_relation(600, name="Y", seed=2).sorted_by(TE_ASC)
        choice = planner.choose(TemporalOperator.CONTAIN_JOIN, x, y)
        assert choice.entry.state_class == "b"
        assert not choice.sort_x and not choice.sort_y

    def test_semijoin_prefers_buffer_only_entry(self, planner):
        x = make_relation(600, name="X").sorted_by(TS_ASC)
        y = make_relation(600, name="Y", seed=2).sorted_by(TE_ASC)
        choice = planner.choose(TemporalOperator.CONTAIN_SEMIJOIN, x, y)
        assert choice.entry.state_class == "d"

    def test_alternatives_are_ranked(self, planner):
        x = make_relation(300, name="X")
        y = make_relation(300, name="Y", seed=2)
        ranked = planner.alternatives(TemporalOperator.CONTAIN_JOIN, x, y)
        costs = [alt.estimated_cost for alt in ranked]
        assert costs == sorted(costs)
        assert any(alt.kind == "nested-loop" for alt in ranked)


class TestPlannerExecution:
    def test_execute_stream_correctness(self, planner):
        x = make_relation(200, duration=30, name="X")
        y = make_relation(200, duration=6, name="Y", seed=2)
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_JOIN, x, y
        )
        assert profile.chosen.kind == "stream"
        expected = sorted(
            (a.value, b.value)
            for a in x
            for b in y
            if contain_predicate(a, b)
        )
        assert sorted((a.value, b.value) for a, b in results) == expected
        assert profile.metrics is not None
        assert profile.metrics.passes_x == 1

    def test_execute_nested_loop_correctness(self, planner):
        x = make_relation(6, duration=30, name="X")
        y = make_relation(6, duration=6, name="Y", seed=2)
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_JOIN, x, y
        )
        assert profile.chosen.kind == "nested-loop"
        expected = sorted(
            (a.value, b.value)
            for a in x
            for b in y
            if contain_predicate(a, b)
        )
        assert sorted((a.value, b.value) for a, b in results) == expected

    def test_execute_semijoin(self, planner):
        x = make_relation(150, duration=25, name="X")
        y = make_relation(150, duration=5, name="Y", seed=2)
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_SEMIJOIN, x, y
        )
        expected = sorted(
            a.value
            for a in x
            if any(contain_predicate(a, b) for b in y)
        )
        assert sorted(t.value for t in results) == expected

    def test_before_semijoin_never_needs_sort(self, planner):
        x = make_relation(400, name="X")
        y = make_relation(400, name="Y", seed=2)
        choice = planner.choose(TemporalOperator.BEFORE_SEMIJOIN, x, y)
        assert choice.kind == "stream"
        assert not choice.sort_x and not choice.sort_y

    def test_before_join_falls_back_to_nested_loop(self, planner):
        x = make_relation(100, name="X")
        y = make_relation(100, name="Y", seed=2)
        choice = planner.choose(TemporalOperator.BEFORE_JOIN, x, y)
        assert choice.kind == "nested-loop"


class TestHistogramPlanning:
    def bursty_relation(self, name, seed):
        """A dense burst inside a sparse tail — the workload where the
        stationary workspace model misleads."""
        from repro.model import TemporalRelation, TemporalSchema
        from repro.model.tuples import TemporalTuple

        burst = [
            TemporalTuple(f"{name}b{i}", i, 5000 + i, 5000 + i + 60)
            for i in range(200)
        ]
        tail = [
            TemporalTuple(f"{name}t{i}", 1000 + i, 50 * i, 50 * i + 5)
            for i in range(200)
        ]
        return TemporalRelation(
            TemporalSchema(name, "Id", "Seq"), burst + tail
        )

    def test_histogram_workspace_estimate_is_larger_on_bursts(self):
        x = self.bursty_relation("X", 1)
        y = self.bursty_relation("Y", 2)
        stationary = TemporalJoinPlanner()
        histogram = TemporalJoinPlanner(use_histograms=True)
        op = TemporalOperator.OVERLAP_JOIN
        flat_ws = stationary.choose(op, x, y).cost_breakdown[
            "expected_workspace"
        ]
        hist_ws = histogram.choose(op, x, y).cost_breakdown[
            "expected_workspace"
        ]
        assert hist_ws > flat_ws * 3

    def test_histogram_estimate_matches_measurement(self):
        from repro.model import TS_ASC

        x = self.bursty_relation("X", 1)
        y = self.bursty_relation("Y", 2)
        planner = TemporalJoinPlanner(use_histograms=True)
        results, profile = planner.execute(
            TemporalOperator.OVERLAP_JOIN,
            x.sorted_by(TS_ASC),
            y.sorted_by(TS_ASC),
        )
        assert results
        predicted = profile.chosen.cost_breakdown["expected_workspace"]
        measured = profile.metrics.workspace_high_water
        assert predicted * 0.4 <= measured <= predicted * 2.5

    def test_histogram_choice_still_correct(self):
        x = self.bursty_relation("X", 1)
        y = self.bursty_relation("Y", 2)
        plain_results, _ = TemporalJoinPlanner().execute(
            TemporalOperator.OVERLAP_JOIN, x, y
        )
        hist_results, _ = TemporalJoinPlanner(use_histograms=True).execute(
            TemporalOperator.OVERLAP_JOIN, x, y
        )
        canonical = lambda rs: sorted(
            (a.value, b.value) for a, b in rs
        )
        assert canonical(plain_results) == canonical(hist_results)


class TestWorkspaceBudgetFallback:
    """The trade-off triangle, operationally: when the chosen stream
    plan overflows a finite workspace, execution falls back to the
    nested loop and still answers correctly."""

    def inputs(self):
        x = make_relation(300, duration=40, name="X")
        y = make_relation(300, duration=8, name="Y", seed=2)
        return x, y

    def test_generous_budget_streams(self):
        x, y = self.inputs()
        planner = TemporalJoinPlanner()
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_JOIN, x, y, workspace_budget=10_000
        )
        assert "workspace_overflow" not in profile.details
        assert profile.chosen.kind == "stream"
        assert results

    def test_tiny_budget_falls_back(self):
        x, y = self.inputs()
        planner = TemporalJoinPlanner()
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_JOIN, x, y, workspace_budget=2
        )
        assert profile.details.get("workspace_overflow")
        assert profile.details.get("fallback") == "nested-loop"
        # Correctness is preserved through the fallback.
        expected = sorted(
            (a.value, b.value)
            for a in x
            for b in y
            if contain_predicate(a, b)
        )
        assert sorted((a.value, b.value) for a, b in results) == expected

    def test_zero_state_plan_ignores_budget(self):
        x, y = self.inputs()
        planner = TemporalJoinPlanner()
        results, profile = planner.execute(
            TemporalOperator.CONTAIN_SEMIJOIN, x, y, workspace_budget=0
        )
        assert "workspace_overflow" not in profile.details
        assert profile.chosen.entry.state_class in ("c", "d")
        if profile.chosen.entry.state_class == "d":
            assert profile.metrics.workspace_high_water == 0


class TestAutoBackendChoice:
    """``CostModel``'s backend factors are fitted on end-to-end query
    timings (the numbers are quoted in ``repro/optimizer/cost.py``); on
    the benchmark's workload shapes the cost-based choice must be the
    backend that measured fastest there: the columnar kernel."""

    MEASURED_WINNER = "columnar"

    @staticmethod
    def fig5_shaped(n=2000):
        x = PoissonWorkload(n, 0.5, fixed_duration(10), name="X").generate(1)
        y = PoissonWorkload(n, 0.5, fixed_duration(40), name="Y").generate(2)
        # "x during y" runs as Contain-join(Y, X).
        return TemporalOperator.CONTAIN_JOIN, y, x

    @staticmethod
    def tab2_shaped_shuffled(n=4000):
        import random

        from repro.model import TemporalRelation
        from repro.workload import uniform_duration

        rng = random.Random(3)
        relations = []
        for name, seed in (("X", 1), ("Y", 2)):
            generated = PoissonWorkload(
                n, 0.2, uniform_duration(1, 3), name=name
            ).generate(seed)
            tuples = list(generated.tuples)
            rng.shuffle(tuples)
            relations.append(TemporalRelation(generated.schema, tuples))
        return (TemporalOperator.OVERLAP_JOIN, *relations)

    @pytest.mark.parametrize("shape", ["fig5_shaped", "tab2_shaped_shuffled"])
    @pytest.mark.parametrize("parallelism", [None, 2])
    def test_auto_picks_the_measured_winner(self, shape, parallelism):
        operator, x, y = getattr(self, shape)()
        planner = TemporalJoinPlanner(backend="auto", parallelism=parallelism)
        chosen = planner.choose(operator, x, y)
        assert chosen.backend == self.MEASURED_WINNER
        assert chosen.kind in ("stream", "parallel-stream")

    def test_fitted_factors_rank_the_backends(self):
        model = CostModel()
        assert (
            model.backend_cpu_factor("columnar")
            < model.backend_cpu_factor("fused")
            < model.backend_cpu_factor("tuple")
        )


class TestColumnPath:
    @pytest.mark.parametrize("backend", ["columnar", "fused"])
    def test_mirrored_cell_sweeps_columns_without_tuples(
        self, backend, monkeypatch
    ):
        """A lower-half (time-reversed) cell on a batch backend runs on
        reversed endpoint columns: no tuple is built, and the positions
        match the upper-half plan's."""
        from repro.columnar import IntervalColumns
        from repro.model import TE_DESC, TemporalTuple

        x = make_relation(200, duration=30, name="X")
        y = make_relation(200, duration=6, name="Y", seed=2)
        x_cols = IntervalColumns.from_tuples(x.tuples).sorted_by(TE_DESC)
        y_cols = IntervalColumns.from_tuples(y.tuples).sorted_by(TE_DESC)
        built = []
        original = TemporalTuple.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(TemporalTuple, "__post_init__", counting)
        pairs, profile = TemporalJoinPlanner(backend=backend).execute_columns(
            TemporalOperator.CONTAIN_JOIN, x_cols, y_cols
        )
        monkeypatch.undo()
        assert profile.chosen.entry.mirrored
        assert built == []
        expected = sorted(
            (i, j)
            for i, a in enumerate(x.tuples)
            for j, b in enumerate(y.tuples)
            if contain_predicate(a, b)
        )
        assert sorted(zip(pairs.xi, pairs.yj)) == expected
