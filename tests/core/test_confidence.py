"""Unit tests for the confidence metrics (Section II-C formulas)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Ftio, FtioConfig
from repro.core.confidence import (
    candidate_confidence,
    confidence_index_sets,
    refined_confidence,
)
from repro.trace.sampling import DiscreteSignal
from repro.utils.stats import zscores


class TestIndexSets:
    def test_single_outlier(self):
        scores = np.array([0.1, 0.2, 8.0, 0.3])
        i1, i2 = confidence_index_sets(scores)
        assert i1.tolist() == [2]
        assert i2.tolist() == [2]

    def test_tolerance_widens_i2(self):
        scores = np.array([0.1, 4.0, 5.0])
        i1, i2 = confidence_index_sets(scores, tolerance=0.5)
        assert set(i1.tolist()) == {1, 2}
        assert set(i2.tolist()) == {1, 2}
        _, i2_strict = confidence_index_sets(scores, tolerance=0.9)
        assert i2_strict.tolist() == [2]

    def test_no_outliers(self):
        i1, i2 = confidence_index_sets(np.array([0.1, 0.2, 0.3]))
        assert i1.size == 0
        assert i2.size > 0  # tolerance set is relative to the max

    def test_empty_and_flat_input(self):
        i1, i2 = confidence_index_sets(np.zeros(0))
        assert i1.size == 0 and i2.size == 0
        i1, i2 = confidence_index_sets(np.zeros(5))
        assert i1.size == 0 and i2.size == 0


class TestCandidateConfidence:
    def test_single_candidate_has_full_confidence(self):
        scores = np.array([0.0, 0.1, 9.0, 0.2])
        assert candidate_confidence(2, scores) == pytest.approx(1.0)

    def test_two_equal_candidates_split_confidence(self):
        scores = np.array([0.0, 6.0, 6.0, 0.0])
        c1 = candidate_confidence(1, scores)
        c2 = candidate_confidence(2, scores)
        assert c1 == pytest.approx(0.5)
        assert c2 == pytest.approx(0.5)

    def test_matches_paper_formula(self):
        scores = np.array([1.0, 5.0, 4.0, 3.5, 0.5])
        # I1 = {1, 2, 3} (z >= 3); I2 with tolerance 0.8 = {1, 2} (z/zmax >= 0.8).
        z = scores
        expected = 0.5 * (z[1] / (z[1] + z[2] + z[3]) + z[1] / (z[1] + z[2]))
        assert candidate_confidence(1, scores) == pytest.approx(expected)

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            candidate_confidence(10, np.array([1.0, 2.0]))

    def test_degenerate_flat_scores(self):
        assert candidate_confidence(0, np.zeros(4)) == pytest.approx(0.0)


class TestRefinedConfidence:
    def test_average_of_three(self):
        assert refined_confidence(0.6, 0.9, 0.9) == pytest.approx(0.8)

    def test_paper_example_values(self):
        # Section II-C: (62.5 % + 99.58 % + 97.6 %) / 3 ≈ 86.5 %.
        assert refined_confidence(0.625, 0.9958, 0.976) == pytest.approx(0.865, abs=0.005)

    def test_clipping(self):
        assert refined_confidence(1.5, 1.0, 1.0) == pytest.approx(1.0)
        assert refined_confidence(-0.5, 0.0, 0.0) == pytest.approx(0.0)


class TestPipelineConfidence:
    """The pipeline builds the index sets once per spectrum; the per-candidate
    form rebuilds them per call.  Same formula, same bits."""

    @pytest.mark.parametrize("tolerance", [0.8, 0.3])
    def test_every_candidate_equals_the_per_candidate_form(self, tolerance):
        rng = np.random.default_rng(2024)
        config = FtioConfig(
            sampling_frequency=10.0,
            tolerance=tolerance,
            use_autocorrelation=False,
            compute_characterization=False,
        )
        ftio = Ftio(config)
        compared = 0
        for _ in range(120):
            n = int(rng.integers(64, 700))
            t = np.arange(n) / 10.0
            period = rng.uniform(2.0, 12.0)
            duty = rng.uniform(0.05, 0.5)
            samples = (np.mod(t, period) < duty * period) * rng.uniform(1e6, 1e9)
            if rng.random() < 0.5:  # a second periodicity: more than one candidate
                other = period * rng.uniform(0.3, 0.9)
                samples = samples + (np.mod(t, other) < duty * other) * rng.uniform(1e6, 1e9)
            samples = samples + rng.uniform(0.0, 1e7, n)
            result = ftio.analyze_signal(DiscreteSignal(samples, 10.0))
            scores = zscores(result.spectrum.analysis_power)
            for candidate in result.candidates:
                assert candidate.zscore == scores[candidate.bin_index - 1]
                assert candidate.confidence == candidate_confidence(
                    candidate.bin_index - 1,
                    scores,
                    zscore_threshold=config.zscore_threshold,
                    tolerance=config.tolerance,
                )
                compared += 1
        assert compared > 120  # windows with several candidates were among them
