"""Generator tests: bucket masses, sampling behavior, roster round-trips."""

import numpy as np
import pytest

import oracle
from fairteams.datagen import (DatasetConfig, GroupGenSpec, BUCKET_MEANS,
                               bucket_distribution, generate_dataset,
                               generate_group, load_instance, preset_config,
                               save_roster, PRESETS)
from fairteams.errors import ValidationError


class TestBucketDistribution:
    def test_matches_numeric_cdf_oracle(self):
        for alpha, beta in [(6, 4), (8, 3.2), (7, 5.5), (7.5, 1), (1, 7.5),
                            (1, 1), (2, 9), (0.5, 0.5), (3, 3)]:
            got = bucket_distribution(alpha, beta)
            want = np.asarray(oracle.beta_bucket_masses(max(alpha, 1.0),
                                                        max(beta, 1.0)))
            if alpha >= 1 and beta >= 1:
                np.testing.assert_allclose(got, want, atol=1e-12)
            assert got.sum() == pytest.approx(1.0, abs=1e-12)
            assert (got >= 0).all()

    def test_strongest_bucket_first(self):
        # Beta(7.5, 1) concentrates near 1, so nearly all mass must land in
        # the first (strongest) slot.
        masses = bucket_distribution(7.5, 1.0)
        assert masses[0] > 0.85
        assert masses[3] < 0.001
        flipped = bucket_distribution(1.0, 7.5)
        np.testing.assert_allclose(flipped, masses[::-1], atol=1e-12)

    def test_symmetric_parameters_mirror(self):
        for a in (0.7, 1.0, 2.5, 6.0):
            masses = bucket_distribution(a, a)
            assert masses[0] == pytest.approx(masses[3], abs=1e-12)
            assert masses[1] == pytest.approx(masses[2], abs=1e-12)

    def test_modal_bucket_of_d1_shape(self):
        # Beta(6,4) has mean 0.6: the second-strongest bucket dominates.
        masses = bucket_distribution(6.0, 4.0)
        assert np.argmax(masses) == 1
        assert masses[1] == pytest.approx(0.5804, abs=5e-4)

    def test_rejects_non_positive_parameters(self):
        with pytest.raises(ValidationError):
            bucket_distribution(0.0, 1.0)
        with pytest.raises(ValidationError):
            bucket_distribution(1.0, -2.0)


class TestGenerateGroup:
    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(50)
        skills = generate_group(200, 2.0, 2.0, 3, rng)
        assert skills.shape == (200, 3)
        assert skills.min() >= 0.0 and skills.max() <= 1.0

    def test_forced_top_bucket_mean(self):
        # Alpha huge, beta tiny: all latent draws land in the top bucket, so
        # each skill is Normal(3.85, sqrt(.1)) scaled by 1/4 and clamped. The
        # clamp trims the upper tail, which drags the sample mean a little
        # below 3.85/4; the band is wide enough to cover that.
        rng = np.random.default_rng(51)
        skills = generate_group(1000, 500.0, 0.01, 2, rng)
        assert skills.mean() == pytest.approx(0.9625, abs=0.02)

    def test_forced_bottom_bucket_mean(self):
        rng = np.random.default_rng(52)
        skills = generate_group(1000, 0.01, 500.0, 2, rng)
        assert skills.mean() == pytest.approx(1.15 / 4.0, abs=0.02)

    def test_empirical_bucket_frequencies(self):
        # Classify each student by the bucket mean nearest to 4x their
        # average skill; with 8 dims the noise rarely crosses the midpoints.
        alpha, beta = 6.0, 4.0
        expected = bucket_distribution(alpha, beta)
        rng = np.random.default_rng(53)
        counts = np.zeros(4)
        n_sets, n_students = 50, 400
        means = np.asarray(BUCKET_MEANS)
        for _ in range(n_sets):
            skills = generate_group(n_students, alpha, beta, 8, rng)
            raw = skills.mean(axis=1) * 4.0
            nearest = np.argmin(np.abs(raw[:, None] - means[None, :]), axis=1)
            counts += np.bincount(nearest, minlength=4)
        freq = counts / (n_sets * n_students)
        # BUCKET_MEANS is ordered weakest first; expected is strongest first.
        np.testing.assert_allclose(freq[::-1], expected, atol=0.02)


class TestGenerateDataset:
    def _config(self):
        return DatasetConfig(skill_dims=2, groups=(
            GroupGenSpec(count=30, alpha=6.0, beta=4.0),
            GroupGenSpec(count=20, alpha=2.0, beta=5.0)))

    def test_groups_are_contiguous_blocks(self):
        inst = generate_dataset(self._config(), seed=0)
        assert inst.n == 50
        assert inst.groups.tolist() == [0] * 30 + [1] * 20

    def test_same_seed_reproduces(self):
        a = generate_dataset(self._config(), seed=4)
        b = generate_dataset(self._config(), seed=4)
        c = generate_dataset(self._config(), seed=5)
        assert np.array_equal(a.skills, b.skills)
        assert not np.array_equal(a.skills, c.skills)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            GroupGenSpec(count=0, alpha=1.0, beta=1.0)
        with pytest.raises(ValidationError):
            GroupGenSpec(count=3, alpha=0.0, beta=1.0)
        with pytest.raises(ValidationError):
            DatasetConfig(skill_dims=0, groups=(
                GroupGenSpec(count=3, alpha=1.0, beta=1.0),))
        with pytest.raises(ValidationError):
            DatasetConfig(skill_dims=2, groups=())


class TestPresets:
    def test_anchor_shapes(self):
        assert PRESETS["d1"] == ((6.0, 4.0), (6.0, 4.0))
        assert PRESETS["d2"] == ((8.0, 3.2), (7.0, 5.5))
        assert PRESETS["d3"] == ((7.5, 1.0), (1.0, 7.5))

    def test_two_group_presets_use_anchors(self):
        config = preset_config("d3", 100)
        assert len(config.groups) == 2
        assert (config.groups[0].alpha, config.groups[0].beta) == (7.5, 1.0)
        assert (config.groups[1].alpha, config.groups[1].beta) == (1.0, 7.5)

    def test_case_insensitive(self):
        config = preset_config("D1", 10)
        assert all(g.alpha == 6.0 and g.beta == 4.0 for g in config.groups)

    def test_interpolation_with_more_groups(self):
        config = preset_config("d3", 90, n_groups=3)
        mids = config.groups[1]
        assert (mids.alpha, mids.beta) == (4.25, 4.25)
        config4 = preset_config("d3", 80, n_groups=4)
        alphas = [g.alpha for g in config4.groups]
        np.testing.assert_allclose(
            alphas, [7.5, 7.5 + (1 - 7.5) / 3, 7.5 + 2 * (1 - 7.5) / 3, 1.0])

    def test_group_sizes_near_equal(self):
        config = preset_config("d1", 101, n_groups=3)
        assert [g.count for g in config.groups] == [34, 34, 33]

    def test_single_group(self):
        config = preset_config("d2", 10, n_groups=1)
        assert (config.groups[0].alpha, config.groups[0].beta) == (8.0, 3.2)

    def test_errors(self):
        with pytest.raises(ValidationError):
            preset_config("d9", 10)
        with pytest.raises(ValidationError):
            preset_config("d1", 2, n_groups=3)
        with pytest.raises(ValidationError):
            preset_config("d1", 10, n_groups=0)


class TestRosterIO:
    def test_round_trip_is_exact(self, tmp_path):
        inst = generate_dataset(preset_config("d2", 25, skill_dims=3), seed=7)
        path = tmp_path / "roster.csv"
        save_roster(inst, path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.skills, inst.skills)
        assert np.array_equal(loaded.groups, inst.groups)
        assert loaded.student_ids == inst.student_ids
        assert loaded.group_labels == inst.group_labels

    def test_header_shape(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("student_id,group,skill_1\na,g1,0.5\nb,g1,0.6\n")
        inst = load_instance(path)
        assert inst.n == 2 and inst.k == 1

    def _expect_error(self, tmp_path, text, snippet):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_instance(path)
        assert snippet in str(err.value)

    def test_error_catalogue(self, tmp_path):
        head = "student_id,group,skill_1\n"
        self._expect_error(tmp_path, "", "empty roster")
        self._expect_error(tmp_path, "id,group,skill_1\na,g,0.5\n",
                           "must start with")
        self._expect_error(tmp_path, "student_id,group,sk1\na,g,0.5\n",
                           "skill columns")
        self._expect_error(tmp_path, head + "a,g1,0.5,0.9\nb,g1,0.4\n",
                           ":2: expected 3 fields")
        self._expect_error(tmp_path, head + ",g1,0.5\nb,g1,0.4\n",
                           ":2: empty student_id")
        self._expect_error(tmp_path, head + "a,g1,0.5\na,g1,0.4\n",
                           ":3: duplicate student_id")
        self._expect_error(tmp_path, head + "a,,0.5\nb,g1,0.4\n",
                           ":2: empty group label")
        self._expect_error(tmp_path, head + "a,g1,zzz\nb,g1,0.4\n",
                           ":2: non-numeric")
        self._expect_error(tmp_path, head + "a,g1,1.2\nb,g1,0.4\n",
                           ":2: skill values must lie in [0, 1]")
        self._expect_error(tmp_path, head + "a,g1,nan\nb,g1,0.4\n",
                           ":2: skill values")
        self._expect_error(tmp_path, head + "a,g1,0.5\n",
                           "at least two students")

    def test_group_ids_by_first_appearance(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("student_id,group,skill_1\n"
                        "a,beta,0.5\nb,alpha,0.6\nc,beta,0.7\n")
        inst = load_instance(path)
        assert inst.group_labels == ("beta", "alpha")
        assert inst.groups.tolist() == [0, 1, 0]
