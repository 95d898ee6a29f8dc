import numpy as np
import pytest

from seqmodes.distribution import (
    Alphabet,
    DistributionError,
    Language,
    ZeroProbabilityError,
    check_language,
    conditional_operator,
    fundamental_tensor,
    is_absolute_bigram,
    language_from_json,
    language_to_json,
    marginalize,
    plant_absolute_bigram,
    plant_collective_bigram,
    random_doubly_stochastic_language,
    random_language,
)


def uniform_language(size, K):
    joint = np.full((size,) * K, 1.0 / size**K)
    return Language(alphabet=Alphabet(size), K=K, joint=joint)


class TestFundamentalTensor:
    def test_uniform_unigram(self):
        lang = uniform_language(2, 1)
        np.testing.assert_allclose(fundamental_tensor(lang, 1), [0.5, 0.5])

    def test_uniform_pairs(self):
        lang = uniform_language(2, 2)
        np.testing.assert_allclose(fundamental_tensor(lang, 2), np.full((2, 2), 0.25))

    def test_normalization(self):
        for seed in range(5):
            lang = random_language(seed, Alphabet(3), 3)
            for k in (1, 2, 3):
                assert abs(fundamental_tensor(lang, k).sum() - 1.0) < 1e-12

    def test_out_of_range(self):
        lang = uniform_language(2, 2)
        with pytest.raises(DistributionError):
            fundamental_tensor(lang, 3)
        with pytest.raises(DistributionError):
            fundamental_tensor(lang, 0)


class TestMarginalize:
    def test_independent_pair(self):
        lang = uniform_language(2, 2)
        np.testing.assert_allclose(marginalize(lang.joint, 1, 0), [0.5, 0.5])

    def test_identity(self):
        lang = random_language(0, Alphabet(2), 2)
        np.testing.assert_array_equal(marginalize(lang.joint, 0, 0), lang.joint)

    def test_composition_matches_direct(self):
        # oracle: summing out one position at a time equals summing both at once
        lang = random_language(7, Alphabet(3), 3)
        a3 = lang.joint
        step = marginalize(marginalize(a3, 1, 0), 0, 1)
        direct = marginalize(a3, 1, 1)
        np.testing.assert_allclose(step, direct, atol=1e-15)

    def test_error_on_degenerate(self):
        with pytest.raises(DistributionError):
            marginalize(np.ones((2, 2)) / 4, 1, 1)

    def test_sum_preserved(self):
        lang = random_language(3, Alphabet(4), 3)
        for i in range(3):
            for j in range(3 - i):
                out = marginalize(lang.joint, i, j)
                assert abs(out.sum() - 1.0) < 1e-12


class TestCheckLanguage:
    def test_consistent_family(self):
        for seed in range(5):
            lang = random_language(seed, Alphabet(3), 3)
            family = [fundamental_tensor(lang, k) for k in (1, 2, 3)]
            assert check_language(family) < 1e-12

    def test_perturbed_unigram_detected(self):
        lang = random_language(1, Alphabet(2), 2)
        family = [fundamental_tensor(lang, 1), lang.joint]
        family[0] = family[0] + np.array([0.1, -0.1])
        assert abs(check_language(family) - 0.1) < 1e-12

    def test_single_level_vacuous(self):
        lang = random_language(2, Alphabet(2), 1)
        assert check_language([lang.joint]) == 0.0

    def test_inconsistent_shapes(self):
        with pytest.raises(DistributionError):
            check_language([np.ones(2) / 2, np.ones((3, 3)) / 9])


class TestConditionalOperator:
    def test_independent_uniform(self):
        op = conditional_operator(uniform_language(2, 2), 1, 1)
        np.testing.assert_allclose(op.matrix, np.full((2, 2), 0.5))
        np.testing.assert_allclose(op.marginal, [0.5, 0.5])

    def test_deterministic_successor_is_permutation(self):
        joint = np.array([[0.0, 0.5], [0.5, 0.0]])
        lang = Language(alphabet=Alphabet(2), K=2, joint=joint)
        op = conditional_operator(lang, 1, 1)
        np.testing.assert_allclose(op.matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_matches_elementwise_division(self):
        lang = random_language(11, Alphabet(4), 2)
        op = conditional_operator(lang, 1, 1)
        a2 = fundamental_tensor(lang, 2)
        a1 = fundamental_tensor(lang, 1)
        np.testing.assert_allclose(op.matrix, (a2 / a1[:, None]).T, atol=1e-15)

    def test_columns_stochastic(self):
        for seed in range(5):
            lang = random_language(seed, Alphabet(3), 3)
            for k, l in [(1, 1), (2, 1), (1, 2)]:
                op = conditional_operator(lang, k, l)
                assert np.max(np.abs(op.matrix.sum(axis=0) - 1.0)) < 1e-12

    def test_zero_context_errors_when_strict(self):
        joint = np.array([[0.5, 0.5], [0.0, 0.0]])
        lang = Language(alphabet=Alphabet(2), K=2, joint=joint, positivity_relaxed=True)
        # relaxed language drops the zero column instead
        op = conditional_operator(lang, 1, 1)
        assert op.x_labels == ((0,),)
        assert abs(op.marginal.sum() - 1.0) < 1e-12

    def test_zero_bigram_context_named_in_error(self):
        # strict languages only guarantee positive unigrams; a longer context
        # can still carry zero mass and must be reported, not dropped
        joint = np.zeros((2, 2, 2))
        joint[0, 1, 0] = joint[0, 1, 1] = 0.25
        joint[1, 0, 0] = joint[1, 0, 1] = 0.25
        lang = Language(alphabet=Alphabet(2), K=3, joint=joint)
        with pytest.raises(ZeroProbabilityError, match=r"\(0, 0\)"):
            conditional_operator(lang, 2, 1)


class TestRandomLanguage:
    def test_deterministic(self):
        a = random_language(42, Alphabet(3), 2)
        b = random_language(42, Alphabet(3), 2)
        np.testing.assert_array_equal(a.joint, b.joint)

    def test_high_concentration_near_uniform(self):
        lang = random_language(5, Alphabet(3), 2, concentration=1e6)
        assert np.max(np.abs(lang.joint - 1.0 / 9)) < 1e-2

    def test_strictly_positive(self):
        lang = random_language(9, Alphabet(4), 3)
        assert np.all(lang.joint > 0)


class TestPlantAbsoluteBigram:
    def test_zeros_planted(self):
        lang = random_language(0, Alphabet(2), 2)
        planted = plant_absolute_bigram(lang, (0,), (0,))
        assert planted.joint[0, 1] == 0.0
        assert planted.joint[1, 0] == 0.0
        assert planted.joint[0, 0] > 0

    def test_passes_check(self):
        lang = random_language(1, Alphabet(3), 2)
        planted = plant_absolute_bigram(lang, (1,), (2,))
        assert is_absolute_bigram(planted, (1,), (2,))
        assert not is_absolute_bigram(planted, (0,), (2,))

    def test_renormalized_mass(self):
        # hand computation on a 2x2 joint: keep q(aa) and q(bb), renormalize
        joint = np.array([[0.1, 0.2], [0.3, 0.4]])
        lang = Language(alphabet=Alphabet(2), K=2, joint=joint)
        planted = plant_absolute_bigram(lang, (0,), (0,))
        np.testing.assert_allclose(planted.joint, np.array([[0.2, 0.0], [0.0, 0.8]]))

    def test_infeasible(self):
        joint = np.array([[0.0, 0.5], [0.5, 0.0]])
        lang = Language(alphabet=Alphabet(2), K=2, joint=joint)
        with pytest.raises(DistributionError):
            plant_absolute_bigram(lang, (0,), (0,))


class TestPlantCollectiveBigram:
    def test_columns_become_indicator(self):
        lang = random_language(3, Alphabet(3), 2)
        planted = plant_collective_bigram(lang, [(0,), (1,)], (2,))
        op = conditional_operator(planted, 1, 1)
        xa = op.x_labels.index((0,))
        xb = op.x_labels.index((1,))
        np.testing.assert_allclose(op.matrix[:, xa], [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(op.matrix[:, xb], [0, 0, 1], atol=1e-15)

    def test_outside_column_zero_at_target(self):
        lang = random_language(3, Alphabet(3), 2)
        planted = plant_collective_bigram(lang, [(0,), (1,)], (2,))
        op = conditional_operator(planted, 1, 1)
        xc = op.x_labels.index((2,))
        assert op.matrix[2, xc] == 0.0

    def test_target_mass_is_sum_over_sources(self):
        # marginalization oracle: q(y) after planting equals Σ_{s in S} q(s)
        lang = random_language(8, Alphabet(3), 2)
        q1 = fundamental_tensor(lang, 1)
        planted = plant_collective_bigram(lang, [(0,), (1,)], (2,))
        q_y = marginalize(planted.joint, 1, 0)
        assert abs(q_y[2] - (q1[0] + q1[1])) < 1e-12

    def test_marginals_preserved(self):
        lang = random_language(8, Alphabet(3), 2)
        before = fundamental_tensor(lang, 1)
        planted = plant_collective_bigram(lang, [(1,)], (0,))
        after = marginalize(planted.joint, 0, 1)
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_infeasible_column(self):
        joint = np.array([[0.5, 0.0], [0.25, 0.25]])
        lang = Language(alphabet=Alphabet(2), K=2, joint=joint, positivity_relaxed=True)
        # context 0 has all mass on y=0, so q(y=0|0)=0 cannot be arranged
        with pytest.raises(DistributionError):
            plant_collective_bigram(lang, [(1,)], (0,))


class TestDoublyStochastic:
    def test_uniform_marginals(self):
        for seed in range(4):
            lang = random_doubly_stochastic_language(seed, 3)
            np.testing.assert_allclose(marginalize(lang.joint, 0, 1), np.full(3, 1 / 3), atol=1e-12)
            np.testing.assert_allclose(marginalize(lang.joint, 1, 0), np.full(3, 1 / 3), atol=1e-12)

    def test_conditional_doubly_stochastic(self):
        lang = random_doubly_stochastic_language(1, 4)
        op = conditional_operator(lang, 1, 1)
        np.testing.assert_allclose(op.matrix.sum(axis=0), np.ones(4), atol=1e-10)
        np.testing.assert_allclose(op.matrix.sum(axis=1), np.ones(4), atol=1e-10)


class TestSerialization:
    def test_roundtrip(self):
        lang = random_language(21, Alphabet(3), 2)
        again = language_from_json(language_to_json(lang))
        np.testing.assert_array_equal(lang.joint, again.joint)
        assert again.K == 2 and again.size == 3

    def test_relaxed_flag_survives(self):
        lang = plant_absolute_bigram(random_language(2, Alphabet(2), 2), (0,), (1,))
        again = language_from_json(language_to_json(lang))
        assert again.positivity_relaxed


class TestLanguageValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(DistributionError):
            Language(alphabet=Alphabet(2), K=1, joint=np.array([0.6, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            Language(alphabet=Alphabet(2), K=1, joint=np.array([1.2, -0.2]))

    def test_rejects_zero_unigram_when_strict(self):
        with pytest.raises(DistributionError):
            Language(alphabet=Alphabet(2), K=1, joint=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN passes both the sign and the sum check, so it needs its own
        joint = np.full((2, 2), 0.25)
        joint[0, 1] = bad
        with pytest.raises(DistributionError, match="joint probabilities must be finite"):
            Language(alphabet=Alphabet(2), K=2, joint=joint, positivity_relaxed=True)
