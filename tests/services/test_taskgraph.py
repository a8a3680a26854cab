"""Unit tests for task-graph specifications."""

import numpy as np
import pytest

from repro.services.taskgraph import AppSpec, EdgeSpec, ServiceSpec, WorkDist


class TestWorkDist:
    def test_deterministic_returns_mean(self):
        rng = np.random.default_rng(0)
        d = WorkDist(1000.0, "deterministic")
        assert all(d.sample(rng) == 1000.0 for _ in range(5))

    def test_zero_mean_always_zero(self):
        rng = np.random.default_rng(0)
        assert WorkDist(0.0, "lognormal").sample(rng) == 0.0

    def test_exponential_mean_approx(self):
        rng = np.random.default_rng(0)
        d = WorkDist(1000.0, "exponential")
        xs = [d.sample(rng) for _ in range(4000)]
        assert np.mean(xs) == pytest.approx(1000.0, rel=0.1)

    def test_lognormal_mean_and_cv(self):
        rng = np.random.default_rng(0)
        d = WorkDist(1000.0, "lognormal", cv=0.25)
        xs = np.array([d.sample(rng) for _ in range(4000)])
        assert xs.mean() == pytest.approx(1000.0, rel=0.05)
        assert xs.std() / xs.mean() == pytest.approx(0.25, rel=0.15)

    def test_samples_nonnegative(self):
        rng = np.random.default_rng(1)
        for dist in ("deterministic", "exponential", "lognormal"):
            d = WorkDist(500.0, dist)
            assert all(d.sample(rng) >= 0 for _ in range(100))

    @pytest.mark.parametrize(
        "d",
        [
            WorkDist(1.6e6, "deterministic"),
            WorkDist(7.5e5, "exponential"),
            WorkDist(3.3e5, "lognormal", cv=0.25),
            WorkDist(2.0e6, "lognormal", cv=1.7),
            WorkDist(1.2e6, "lognormal", cv=0.0),  # hits the 1e-9 cv floor
            WorkDist(0.0, "lognormal"),
        ],
        ids=["deterministic", "exponential", "lognormal", "lognormal-wide",
             "lognormal-cv0", "zero"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, 90210])
    def test_draws_bitwise_equal_inline_formula(self, d, seed):
        """Precomputing the lognormal parameters must not move one bit of
        any draw, nor the number of draws taken from the stream."""

        def inline(rng):
            m = d.mean_cycles
            if m == 0.0 or d.dist == "deterministic":
                return m
            if d.dist == "exponential":
                return float(rng.exponential(m))
            cv = max(d.cv, 1e-9)
            sigma2 = np.log1p(cv * cv)
            mu = np.log(m) - 0.5 * sigma2
            return float(rng.lognormal(mu, np.sqrt(sigma2)))

        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.array([d.sample(got_rng) for _ in range(300)])
        want = np.array([inline(want_rng) for _ in range(300)])
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_mean_time(self):
        assert WorkDist(1.6e6).mean_time(1.6e9) == pytest.approx(1e-3)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            WorkDist(-1.0)
        with pytest.raises(ValueError):
            WorkDist(1.0, "weird")
        with pytest.raises(ValueError):
            WorkDist(1.0, cv=-0.5)
        with pytest.raises(ValueError):
            WorkDist(1.0).mean_time(0.0)


def svc(name, children=(), fanout="sequential"):
    return ServiceSpec(
        name,
        pre_work=WorkDist(1e6),
        children=tuple(EdgeSpec(c) for c in children),
        fanout=fanout,
    )


class TestAppSpec:
    def test_depth_of_chain(self):
        app = AppSpec(
            "a", "x",
            (svc("r", ["m"]), svc("m", ["l"]), svc("l")),
            root="r", qos_target=1.0,
        )
        assert app.depth == 3
        assert app.depths() == {"r": 1, "m": 2, "l": 3}

    def test_depth_takes_longest_path(self):
        app = AppSpec(
            "a", "x",
            (svc("r", ["s", "d1"]), svc("s"), svc("d1", ["d2"]), svc("d2")),
            root="r", qos_target=1.0,
        )
        assert app.depth == 3

    def test_downstream_of(self):
        app = AppSpec(
            "a", "x",
            (svc("r", ["m"]), svc("m", ["l1", "l2"]), svc("l1"), svc("l2")),
            root="r", qos_target=1.0,
        )
        assert set(app.downstream_of("r")) == {"m", "l1", "l2"}
        assert set(app.downstream_of("m")) == {"l1", "l2"}
        assert app.downstream_of("l1") == []

    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="cycle"):
            AppSpec(
                "a", "x",
                (svc("r", ["m"]), svc("m", ["r"])),
                root="r", qos_target=1.0,
            )

    def test_unknown_child_rejected(self):
        with pytest.raises(ValueError, match="unknown child"):
            AppSpec("a", "x", (svc("r", ["ghost"]),), root="r", qos_target=1.0)

    def test_unknown_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            AppSpec("a", "x", (svc("r"),), root="ghost", qos_target=1.0)

    def test_duplicate_service_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AppSpec("a", "x", (svc("r"), svc("r")), root="r", qos_target=1.0)

    def test_duplicate_child_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate child"):
            ServiceSpec(
                "r",
                pre_work=WorkDist(1e6),
                children=(EdgeSpec("c"), EdgeSpec("c")),
            )

    def test_pool_labels(self):
        pooled = AppSpec(
            "a", "x",
            (
                ServiceSpec("r", WorkDist(1e6), (EdgeSpec("l", 512),)),
                svc("l"),
            ),
            root="r", qos_target=1.0,
        )
        assert pooled.uses_fixed_pools
        assert pooled.threadpool_label == "512"
        unpooled = AppSpec(
            "a", "x", (svc("r", ["l"]), svc("l")), root="r", qos_target=1.0
        )
        assert not unpooled.uses_fixed_pools
        assert unpooled.threadpool_label == "inf"

    def test_service_lookup(self):
        app = AppSpec("a", "x", (svc("r"),), root="r", qos_target=1.0)
        assert app.service("r").name == "r"
        with pytest.raises(KeyError):
            app.service("ghost")

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            ServiceSpec("s", WorkDist(1e6), fanout="diagonal")

    def test_invalid_pool_size_rejected(self):
        with pytest.raises(ValueError):
            EdgeSpec("c", 0)
