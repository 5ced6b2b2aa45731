"""Tests of the limitation study's run: serial, reproducible from its seed."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.sweep import LimitationStudy
from repro.exceptions import ConfigurationError
from repro.utils.rng import as_generator
from repro.workloads.synthetic import PhaseLibrary


@pytest.fixture(scope="module")
def small_study():
    return LimitationStudy(
        library=PhaseLibrary.generate(n_phases=6, seed=11), traces_per_point=2
    )


@pytest.fixture(scope="module")
def points(small_study):
    return small_study.variability_points(sigma_over_mu=(0.0, 0.5, 1.0), iterations=6)


@pytest.fixture(scope="module")
def baseline(small_study, points):
    return small_study.run(points, seed=3)


def assert_results_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.point == b.point
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.confidences, b.confidences)
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.true_period == ob.true_period
            assert oa.detected_period == ob.detected_period
            assert oa.sigma_vol == ob.sigma_vol
            assert oa.sigma_time == ob.sigma_time


class TestSerialSweep:
    def test_run_is_reproducible_from_its_seed(self, small_study, points, baseline):
        assert_results_identical(baseline, small_study.run(points, seed=3))

    def test_each_point_runs_on_its_own_drawn_seed(self, small_study, points, baseline):
        # The per-point seeds are drawn from the run seed in point order, so
        # any point can be rerun alone.
        rng = as_generator(3)
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in points]
        assert_results_identical(
            baseline, [small_study.run_point(p, seed=s) for p, s in zip(points, seeds)]
        )

    def test_a_prefix_of_the_points_reruns_the_prefix(self, small_study, points, baseline):
        [result] = small_study.run(points[:1], seed=3)
        assert len(result.outcomes) == small_study.traces_per_point
        assert_results_identical(baseline[:1], [result])

    def test_no_points_is_no_results(self, small_study):
        assert small_study.run([], seed=3) == []

    def test_study_roundtrips_through_pickle(self, small_study, points):
        clone = pickle.loads(pickle.dumps(small_study))
        a = small_study.run_point(points[0], seed=5)
        b = clone.run_point(points[0], seed=5)
        assert np.array_equal(a.errors, b.errors)

    def test_traces_per_point_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="traces_per_point"):
            LimitationStudy(library=PhaseLibrary.generate(n_phases=2, seed=1), traces_per_point=0)
