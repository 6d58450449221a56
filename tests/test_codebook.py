import hashlib
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bofsent import codebook
from bofsent.codebook import (
    _KMEANS_WARMUP_ITERS,
    BLOCK,
    GmmCodebook,
    _assign,
    _block_posteriors,
    _column_variance,
    _joint_terms,
    _kmeans_plus_plus,
    encode,
    em_step,
    fit_gmm,
    initialize_codebook,
    read_codebook,
    sample_balanced,
    write_codebook,
)
from bofsent.corpus import Polarity
from bofsent.descriptors import DescriptorSet, read_descriptors, write_descriptors
from util import (
    allocating_assign,
    direct_loglik,
    direct_posterior,
    kmeans_plus_plus_reference,
    unblocked_em_step,
    unblocked_encode,
    unblocked_log_joint,
    unblocked_logsumexp_rows,
    unscaled_block_posteriors,
)


def _dset(seg_id, rows):
    return DescriptorSet(segment_id=seg_id, descriptors=np.asarray(rows, dtype=np.float32))


def _random_codebook(rng, k=4, dim=3):
    weights = rng.uniform(0.5, 2.0, k)
    return GmmCodebook(
        weights=weights / weights.sum(),
        means=rng.normal(0.0, 2.0, (k, dim)),
        variances=rng.uniform(0.5, 2.0, (k, dim)),
        modality="audio",
    )


class TestSampleBalanced:
    def _sets(self, rng, n_pos=600, n_neg=600, dim=2):
        return [
            (_dset("p", rng.random((n_pos, dim))), Polarity.POSITIVE),
            (_dset("n", rng.random((n_neg, dim))), Polarity.NEGATIVE),
        ]

    def test_exact_split(self):
        rng = np.random.default_rng(0)
        rows, counts = sample_balanced(self._sets(rng), budget=1000, seed=1)
        assert rows.shape == (1000, 2)
        assert counts.shape == (1000,) and (counts == 1).all()

    def test_reference_budget_splits_half_and_half(self):
        # the reference operating point: one million descriptors, half per class
        rng = np.random.default_rng(1)
        sets = [
            (_dset("p", rng.random((600_000, 2), dtype=np.float32) + 10.0), Polarity.POSITIVE),
            (_dset("n", rng.random((600_000, 2), dtype=np.float32) - 10.0), Polarity.NEGATIVE),
        ]
        rows, counts = sample_balanced(sets, budget=1_000_000, seed=2)
        assert rows.shape == (1_000_000, 2)
        assert counts.shape == (1_000_000,) and (counts == 1).all()
        assert (rows[:500_000, 0] > 0).all(), "first half drawn from the positive pool"
        assert (rows[500_000:, 0] < 0).all(), "second half drawn from the negative pool"

    def test_replacement_fallback_with_warning(self, caplog):
        rng = np.random.default_rng(0)
        sets = self._sets(rng, n_pos=600, n_neg=30)
        with caplog.at_level(logging.WARNING):
            rows, counts = sample_balanced(sets, budget=100, seed=1)
        # 50 positive rows drawn once each, then the distinct negative rows drawn
        distinct = len(rows) - 50
        assert rows.shape == (50 + distinct, 2) and 0 < distinct <= 30
        assert counts.shape == (len(rows),) and counts.sum() == 100
        assert (counts[:50] == 1).all() and (counts[50:] >= 1).all()
        assert len(np.unique(rows[50:], axis=0)) == distinct
        assert any("sampling with replacement" in rec.message for rec in caplog.records)

    def test_sampling_record_logged(self, caplog):
        rng = np.random.default_rng(0)
        with caplog.at_level(logging.INFO, logger="bofsent.codebook"):
            rows, counts = sample_balanced(self._sets(rng, n_pos=600, n_neg=30), budget=100, seed=1)
        records = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.INFO]
        assert records == [
            "class positive: 600 descriptors available, 50 drawn, 50 rows kept",
            f"class negative: 30 descriptors available, 50 drawn, {len(rows) - 50} rows kept",
        ]

    def test_seed_determinism(self):
        rng = np.random.default_rng(0)
        sets = self._sets(rng, n_neg=80)
        a = sample_balanced(sets, budget=200, seed=9)
        b = sample_balanced(sets, budget=200, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("n_neg", [40, 3000])
    def test_matches_concatenated_draws(self, n_neg):
        # Reference: both classes' draws concatenated into one float64 sample.
        rng = np.random.default_rng(n_neg)
        pos = [rng.random((n, 5), dtype=np.float32) for n in (1200, 1800)]
        neg = rng.random((n_neg, 5), dtype=np.float32)
        sets = [(_dset("p", rows), Polarity.POSITIVE) for rows in pos] + [(_dset("n", neg), Polarity.NEGATIVE)]
        need = BLOCK + 5
        draw = np.random.default_rng(4)
        pools = (np.concatenate(pos), neg)
        draws = [(pool, draw.choice(len(pool), size=need, replace=len(pool) < need)) for pool in pools]
        expected = np.concatenate([pool[idx] for pool, idx in draws], dtype=np.float64)
        rows, counts = sample_balanced(sets, budget=2 * need, seed=4)
        assert rows.dtype == np.float64
        sample = np.repeat(rows, counts, axis=0)
        # the same multiset as the reference draw ...
        assert np.array_equal(sample[np.lexsort(sample.T)], expected[np.lexsort(expected.T)])
        # ... in draw order for a class with enough rows, in pool order for one drawn with replacement
        in_order = [pool[idx if len(pool) >= need else np.sort(idx)] for pool, idx in draws]
        assert np.array_equal(sample, np.concatenate(in_order, dtype=np.float64))
        assert len(rows) == need + (len(np.unique(draws[1][1])) if n_neg < need else need)

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(0)
        sets = [(_dset("p", rng.random((10, 2))), Polarity.POSITIVE)]
        with pytest.raises(ValueError, match="negative"):
            sample_balanced(sets, budget=10, seed=0)

    def test_odd_budget_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="even"):
            sample_balanced(self._sets(rng), budget=101, seed=0)


class TestFitGmm:
    def test_two_separated_components_recovered(self):
        rng = np.random.default_rng(7)
        true_means = np.array([[0.0, 0.0], [10.0, 10.0]])
        data = np.vstack(
            [rng.normal(true_means[0], 1.0, (10000, 2)), rng.normal(true_means[1], 1.0, (10000, 2))]
        )
        book = fit_gmm(data, 2, seed=3)
        order = np.argsort(book.means[:, 0])
        separation = np.linalg.norm(true_means[1] - true_means[0])
        for fitted, truth in zip(book.means[order], true_means):
            assert np.linalg.norm(fitted - truth) < 0.05 * separation
        assert np.abs(book.weights - 0.5).max() < 0.05

    def test_k1_closed_form(self):
        rng = np.random.default_rng(1)
        data = rng.normal(2.0, 3.0, (200, 3))
        book = fit_gmm(data, 1, seed=0)
        floor = 1e-4 * data.var(axis=0).mean()
        assert np.allclose(book.means[0], data.mean(axis=0), atol=1e-12)
        assert np.allclose(book.variances[0], np.maximum(data.var(axis=0), floor), atol=1e-12)
        assert book.weights[0] == 1.0

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(2)
        data = rng.normal(0, 1, (500, 4))
        a = fit_gmm(data, 3, seed=11)
        b = fit_gmm(data, 3, seed=11)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)

    def test_zero_iterations_rejected(self):
        data = np.random.default_rng(3).normal(size=(100, 2))
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            fit_gmm(data, 2, seed=0, max_iters=0)

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError, match="rows"):
            fit_gmm(np.zeros((19, 2)) + np.arange(19)[:, None], 2, seed=0)

    @staticmethod
    def _drawn(rng, distinct, total, dim=3):
        """``distinct`` rows whose draw counts (each at least 1) sum to ``total``."""
        rows = rng.normal(size=(distinct, dim))
        return rows, 1 + np.bincount(rng.integers(distinct, size=total - distinct), minlength=distinct)

    def test_row_check_reads_total_count(self):
        # codebook256's video sample: 2,011 distinct rows drawn 16,000 times, K=256
        rows, counts = self._drawn(np.random.default_rng(0), 2011, 16_000)
        book = fit_gmm(rows, 256, seed=0, max_iters=2, n_init=1, counts=counts)
        assert book.n_components == 256
        with pytest.raises(ValueError, match="need at least 2560 rows"):
            fit_gmm(rows, 256, seed=0, max_iters=2, n_init=1)

    def test_distinct_rows_check_reads_rows(self):
        rows, counts = self._drawn(np.random.default_rng(1), 200, 16_000)
        with pytest.raises(ValueError, match="fewer than 256 distinct rows"):
            fit_gmm(rows, 256, seed=0, max_iters=2, n_init=1, counts=counts)

    @pytest.mark.parametrize(
        ("counts", "message"),
        [(np.ones(99, dtype=np.int64), "one per row"), (np.ones(100), "integers"), (np.arange(100), "at least 1")],
        ids=["short", "float", "zero"],
    )
    def test_bad_counts_rejected(self, counts, message):
        data = np.random.default_rng(2).normal(size=(100, 2))
        with pytest.raises(ValueError, match=message):
            fit_gmm(data, 2, seed=0, counts=counts)

    # sha256 of the codebook file, recorded before sampling returned draw counts: a
    # sample where no class falls back must keep the bytes of the unweighted fit.
    # Recorded with OpenBLAS 0.3.31 (Haswell kernels); another BLAS may round the
    # matrix products differently.
    @pytest.mark.parametrize(
        ("dim", "k", "digest"),
        [
            (3, 8, "e4b1a261433a7a82597947ea1a96ff38d3fa37489b89a09dcdc622b90faf678e"),
            (64, 16, "f66fc1cccb8f1863cf9536da551d9bb9d68f385f9f1c11387bda39211ed79fbf"),
        ],
    )
    def test_unit_counts_keep_their_digest(self, dim, k, digest, tmp_path):
        rng = np.random.default_rng(dim)
        sets = [
            (_dset("p", rng.normal(0.0, 1.0, (1500, dim))), Polarity.POSITIVE),
            (_dset("n", rng.normal(1.5, 2.0, (1200, dim))), Polarity.NEGATIVE),
        ]
        rows, counts = sample_balanced(sets, budget=2 * BLOCK + 6, seed=5)
        assert (counts == 1).all()
        write_codebook(tmp_path / "b.gmm", fit_gmm(rows, k, seed=3, max_iters=20, counts=counts))
        assert hashlib.sha256((tmp_path / "b.gmm").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(("row", "value"), [(0, np.nan), (BLOCK - 1, np.inf), (2 * BLOCK + 2, np.nan)])
    def test_non_finite_row_rejected_in_any_block(self, row, value):
        # 2 * BLOCK + 3 rows: two full blocks and a partial one holding the last row.
        data = np.random.default_rng(0).normal(size=(2 * BLOCK + 3, 2))
        data[row, 1] = value
        with pytest.raises(ValueError, match="finite"):
            fit_gmm(data, 2, seed=0)

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError, match="degenerate|distinct"):
            fit_gmm(np.ones((50, 2)), 2, seed=0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_floor_scale_raises_value_error(self, scale):
        # Every restart's log-likelihood is NaN, so none is kept.
        data = np.random.default_rng(0).normal(size=(200, 2))
        with pytest.raises(ValueError, match="no restart reached a finite log-likelihood"):
            fit_gmm(data, 2, seed=0, variance_floor_scale=scale)

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[0.0, 0.0], [1.0, 1.0]]),
            # not dyadic: an expanded |x|² - 2x·c + |c|² leaves rounding noise where a
            # duplicate's distance must be exactly 0
            np.random.default_rng(0).normal(0.0, 3.0, (2, 4)),
        ],
        ids=["zeros-ones", "random"],
    )
    def test_more_components_than_distinct_rows(self, rows):
        data = np.repeat(rows, 20, axis=0)  # 2 distinct rows
        with pytest.raises(ValueError, match="distinct"):
            fit_gmm(data, 3, seed=0)

    def test_each_restart_logged(self, caplog):
        rng = np.random.default_rng(3)
        data = np.vstack([rng.normal(0.0, 1.0, (200, 2)), rng.normal(6.0, 1.0, (200, 2))])
        with caplog.at_level(logging.INFO, logger="bofsent.codebook"):
            book = fit_gmm(data, 2, seed=1, max_iters=200, n_init=3)
            capped = fit_gmm(data, 2, seed=1, max_iters=1, n_init=2)
        assert isinstance(book, GmmCodebook) and isinstance(capped, GmmCodebook)
        records = [(rec.levelno, rec.getMessage()) for rec in caplog.records]
        restarts = [m for level, m in records if "EM iterations" in m and level == logging.INFO]
        kept = [(level, m) for level, m in records if "kept restart" in m]
        assert len(restarts) == 5 and len(kept) == 2
        assert all("stopped on tol" in m for m in restarts[:3])
        assert all("1 EM iterations" in m and "stopped on max_iters" in m for m in restarts[3:])
        final = [float(m.split("log-likelihood ")[1].split(",")[0]) for m in restarts[:3]]
        best = int(np.argmax(final))
        assert kept[0][0] == logging.INFO
        assert kept[0][1] == f"audio codebook: kept restart {best + 1}/3 (log-likelihood {final[best]:.6f})"
        # a kept restart that stopped on the cap says so at WARNING
        assert kept[1][0] == logging.WARNING
        assert "stopped on max_iters=1 before its relative gain fell below tol=1e-05" in kept[1][1]

    def test_monotone_loglik_fuzz(self):
        rng = np.random.default_rng(4)
        for case in range(5):
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 5))
            data = np.vstack(
                [rng.normal(rng.uniform(-3, 3, dim), rng.uniform(0.5, 2.0), (150, dim)) for _ in range(k)]
            )
            floor = 1e-4 * data.var(axis=0).mean()
            book = initialize_codebook(data, k, seed=case, variance_floor=floor)
            values = []
            for _ in range(25):
                book, ll = em_step(book, data, floor)
                values.append(ll)
            diffs = np.diff(values)
            assert (diffs >= -1e-9).all()

    def test_variance_floor_respected(self):
        rng = np.random.default_rng(5)
        data = rng.normal(0, 1, (300, 2))
        data[:, 1] *= 1e-6  # squash one dimension toward the floor
        floor_scale = 1e-4
        floor = floor_scale * data.var(axis=0).mean()
        book = initialize_codebook(data, 3, seed=0, variance_floor=floor)
        for _ in range(15):
            book, _ = em_step(book, data, floor)
            assert (book.variances >= floor - 1e-15).all()
        fitted = fit_gmm(data, 3, seed=0, variance_floor_scale=floor_scale)
        assert (fitted.variances >= floor - 1e-15).all()


def _mixture_rows(rng, book, n):
    """n rows drawn from the components of ``book``."""
    comps = rng.choice(book.n_components, size=n, p=book.weights)
    return book.means[comps] + rng.normal(0.0, 1.0, (n, book.dim)) * np.sqrt(book.variances[comps])


class TestBlocks:
    """The blocked kernels against the former all-rows-at-once formulas, around block boundaries."""

    SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]

    @pytest.mark.parametrize("n", SIZES)
    def test_em_step_matches_unblocked(self, n):
        rng = np.random.default_rng(n)
        book = _random_codebook(rng, k=5, dim=3)
        data = _mixture_rows(rng, book, n)
        floor = 1e-3
        updated, ll = em_step(book, data, floor)
        weights, means, variances, expected_ll = unblocked_em_step(
            book.weights, book.means, book.variances, data, floor
        )
        np.testing.assert_allclose(updated.weights, weights, rtol=1e-12, atol=0)
        np.testing.assert_allclose(updated.means, means, rtol=1e-12, atol=0)
        np.testing.assert_allclose(updated.variances, variances, rtol=1e-12, atol=0)
        assert ll == pytest.approx(expected_ll, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", SIZES)
    def test_loglik_and_encode_match_unblocked(self, n):
        rng = np.random.default_rng(100 + n)
        book = _random_codebook(rng, k=5, dim=3)
        rows = _mixture_rows(rng, book, n).astype(np.float32)
        joint = unblocked_log_joint(book.weights, book.means, book.variances, rows.astype(np.float64))
        expected_ll = float(unblocked_logsumexp_rows(joint).sum())
        assert em_step(book, rows, 1e-3)[1] == pytest.approx(expected_ll, rel=1e-12, abs=0)
        pooled = encode(book, DescriptorSet("s", rows)).values
        expected = unblocked_encode(book.weights, book.means, book.variances, rows)
        np.testing.assert_allclose(pooled, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", SIZES)
    def test_assign_matches_brute_force_argmin(self, n):
        rng = np.random.default_rng(200 + n)
        centers = rng.normal(0.0, 2.0, (7, 4))
        data = rng.normal(0.0, 2.0, (n, 4))
        d2 = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        nearest = np.sort(d2, axis=1)
        assert (nearest[:, 1] - nearest[:, 0] > 1e-6).all(), "test data must have no near ties"
        assert np.array_equal(_assign(data, centers), d2.argmin(axis=1))
        # the scores buffer reused across blocks gives the former per-block arrays' argmin
        assert np.array_equal(_assign(data, centers), allocating_assign(data, centers))
        wide = rng.normal(0.0, 2.0, (256, 64))
        rows = rng.normal(0.0, 2.0, (n, 64))
        assert np.array_equal(_assign(rows, wide), allocating_assign(rows, wide))

    @pytest.mark.parametrize("dim", [1, 2, 3, 64])
    @pytest.mark.parametrize("n", SIZES)
    def test_column_variance_matches_var_bitwise(self, n, dim):
        rng = np.random.default_rng(300 + n + dim)
        data = rng.normal(5.0, 1.0, (n, dim)) * rng.choice([1e-3, 1.0, 1e4], size=(n, dim))
        for layout in (data, np.asfortranarray(data)):
            assert np.array_equal(_column_variance(layout), layout.var(axis=0))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from(SIZES),
        dim=st.sampled_from([1, 3, 64]),
        max_count=st.integers(1, 9),
    )
    def test_block_posteriors_scale_each_row_by_its_count(self, seed, n, dim, max_count):
        rng = np.random.default_rng(seed)
        book = _random_codebook(rng, k=5, dim=dim)
        rows = _mixture_rows(rng, book, n)
        terms = _joint_terms(book)
        counts = rng.integers(1, max_count + 1, n)
        _, post, norms = _block_posteriors(rows, *terms, counts)
        assert np.abs(post.sum(axis=1) - counts).max() <= 1e-12
        feats, unscaled, unscaled_norms = unscaled_block_posteriors(rows, *terms)
        np.testing.assert_allclose(post, unscaled * counts[:, None], rtol=1e-15, atol=0)
        _same_bits(norms, counts * unscaled_norms)
        # a count of 1 keeps the bits of the unscaled block
        unit = _block_posteriors(rows, *terms, np.ones(n, dtype=np.int64))
        for got, expected in zip(unit, (feats, unscaled, unscaled_norms)):
            _same_bits(got, expected)


def _seeding_rows(rng, kind, n, dim):
    """``n`` rows of one of the shapes that stress the seeding's pruning and ties."""
    if kind == "distinct":
        return rng.normal(size=(n, dim))
    if kind == "duplicated":
        pool = rng.normal(size=(int(rng.integers(1, n + 1)), dim))
        return pool[rng.integers(0, len(pool), n)]
    if kind == "collinear":
        return rng.normal(size=(n, 1)) * rng.normal(size=dim) + rng.normal(size=dim)
    return rng.integers(-2, 3, (n, dim)).astype(np.float64)  # integer lattice


def _seeding_count(caplog) -> tuple[int, int]:
    """(computed, n·(K−1)) from the one seeding line logged."""
    [line] = [rec.getMessage() for rec in caplog.records if "k-means++ seeding" in rec.getMessage()]
    computed, full = line.split("computed ")[1].split(" row distances")[0].split(" of ")
    return int(computed), int(full)


class TestSeeding:
    """The pruned k-means++ seeding against the former one-distance-per-row loop."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from(TestBlocks.SIZES),
        dim=st.sampled_from([1, 2, 3, 64]),
        k=st.integers(1, 64),
        kind=st.sampled_from(["distinct", "duplicated", "collinear", "lattice"]),
        exponent=st.floats(-150.0, 100.0),
    )
    @example(seed=7, n=2 * BLOCK + 3, dim=64, k=256, kind="distinct", exponent=0.0)
    def test_matches_reference_bitwise(self, seed, n, dim, k, kind, exponent):
        k = min(k, n)
        data = _seeding_rows(np.random.default_rng(seed), kind, n, dim) * 10.0**exponent
        outcomes = []
        for seeding in (_kmeans_plus_plus, kmeans_plus_plus_reference):
            try:
                outcomes.append(seeding(data, k, np.random.default_rng(seed)).tobytes())
            except ValueError as exc:
                outcomes.append(f"ValueError: {exc}")
        assert outcomes[0] == outcomes[1]

    def test_two_centers_compute_every_row(self, caplog):
        data = np.random.default_rng(0).normal(size=(BLOCK + 1, 3))
        with caplog.at_level(logging.DEBUG, logger="bofsent.codebook"):
            _kmeans_plus_plus(data, 2, np.random.default_rng(1))
        assert _seeding_count(caplog) == (BLOCK + 1, BLOCK + 1)

    def test_separated_clusters_skip_rows(self, caplog):
        rng = np.random.default_rng(2)
        data = (100.0 * np.eye(8))[rng.integers(0, 8, 2000)] + rng.normal(size=(2000, 8))
        with caplog.at_level(logging.DEBUG, logger="bofsent.codebook"):
            _kmeans_plus_plus(data, 16, np.random.default_rng(3))
        computed, full = _seeding_count(caplog)
        assert full == 2000 * 15
        assert computed < full // 2


# Weighted sums round differently from sums over the repeated rows; variances
# lose a few more digits to the x² − mean² cancellation.
WEIGHTED_RTOL = 1e-9


def _weighted_case(seed, n, dim, max_count):
    """(rng, rows, integer draw counts in [1, max_count], the rows repeated by their counts)."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, 2.0, (n, dim))
    counts = rng.integers(1, max_count + 1, n)
    return rng, rows, counts, np.repeat(rows, counts, axis=0)


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=WEIGHTED_RTOL, atol=WEIGHTED_RTOL)


def _same_bits(a, b):
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestWeighted:
    """Kernels on (rows, draw counts) against the unweighted kernels on the repeated rows."""

    CASES = dict(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 2, 7, BLOCK - 1, BLOCK + 1]),
        dim=st.sampled_from([1, 2, 3, 64]),
        max_count=st.integers(1, 9),
    )

    @settings(max_examples=40, deadline=None)
    @given(**CASES)
    def test_em_step_loglik_variance_match_repeated_rows(self, seed, n, dim, max_count):
        rng, rows, counts, repeated = _weighted_case(seed, n, dim, max_count)
        book = _random_codebook(rng, k=5, dim=dim)
        updated, ll = em_step(book, rows, 1e-3, counts)
        expected, expected_ll = em_step(book, repeated, 1e-3)
        for name in ("weights", "means", "variances"):
            _close(getattr(updated, name), getattr(expected, name))
        expected_ll = pytest.approx(expected_ll, rel=WEIGHTED_RTOL, abs=WEIGHTED_RTOL * len(repeated))
        assert ll == expected_ll
        _close(_column_variance(rows, counts), repeated.var(axis=0))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 8), **CASES)
    def test_initial_codebook_matches_repeated_rows(self, seed, n, dim, max_count, k):
        # The draws line up: the first center is draw u of the repeated rows either
        # way, and p ∝ counts·d2 has the repeated rows' cumulative sum at each
        # group's end, so one uniform picks the same row in both.
        rng, rows, counts, repeated = _weighted_case(seed, n, dim, max_count)
        k = min(k, n)
        weighted = initialize_codebook(rows, k, seed, 1e-3, counts=counts)
        expected = initialize_codebook(repeated, k, seed, 1e-3)
        for name in ("weights", "means", "variances"):
            _close(getattr(weighted, name), getattr(expected, name))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 8), dtype=st.sampled_from([np.int64, np.int32, np.uint8]), **CASES)
    def test_unit_counts_are_the_unweighted_call(self, seed, n, dim, max_count, k, dtype):
        rng, rows, _, _ = _weighted_case(seed, n, dim, max_count)
        ones = np.ones(n, dtype=dtype)
        book = _random_codebook(rng, k=5, dim=dim)
        (stepped, ll), (expected, expected_ll) = em_step(book, rows, 1e-3, ones), em_step(book, rows, 1e-3)
        assert ll == expected_ll
        _same_bits(_column_variance(rows, ones), rows.var(axis=0))
        k = min(k, n)
        seeded = _kmeans_plus_plus(rows, k, np.random.default_rng(seed), ones)
        _same_bits(seeded, kmeans_plus_plus_reference(rows, k, np.random.default_rng(seed)))
        initial = initialize_codebook(rows, k, seed, 1e-3, counts=ones), initialize_codebook(rows, k, seed, 1e-3)
        for weighted, unweighted in ((stepped, expected), initial):
            for name in ("weights", "means", "variances"):
                _same_bits(getattr(weighted, name), getattr(unweighted, name))


def test_empty_cluster_takes_floored_column_variance(monkeypatch):
    # The sample's column variance is computed only for a cluster that ends the
    # warm-up empty, and becomes that cluster's variance row, floored.
    rng = np.random.default_rng(4)
    data = rng.normal(size=(300, 3)) * [1e-3, 1.0, 2.0]
    counts = rng.integers(1, 4, 300)
    floor = 1e-4
    variance_calls = []
    assign_calls = []

    def counted_variance(*args):
        variance_calls.append(args)
        return _column_variance(*args)

    def last_call_empties_cluster(rows, centers):
        assign = _assign(rows, centers)
        assign_calls.append((assign == 3).sum())
        if len(assign_calls) == _KMEANS_WARMUP_ITERS + 1:
            assign[assign == 3] = 0
        return assign

    monkeypatch.setattr(codebook, "_column_variance", counted_variance)
    initialize_codebook(data, 4, 0, floor, counts=counts)
    assert variance_calls == []
    monkeypatch.setattr(codebook, "_assign", last_call_empties_cluster)
    book = initialize_codebook(data, 4, 0, floor, counts=counts)
    assert len(assign_calls) == _KMEANS_WARMUP_ITERS + 1 and assign_calls[-1] > 0
    assert len(variance_calls) == 1
    expected = np.maximum(_column_variance(data, counts), floor)
    assert expected[0] == floor and (expected[1:] > floor).all()
    _same_bits(book.variances[3], expected)
    assert book.weights[3] < 1e-11


class TestLoglik:
    """The log-likelihood ``em_step`` returns, under the incoming parameters."""

    def test_unit_gaussian_at_mean(self):
        book = GmmCodebook(
            weights=np.array([1.0]), means=np.array([[0.0]]), variances=np.array([[1.0]]), modality="audio"
        )
        assert em_step(book, np.array([[0.0]]), 1.0)[1] == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_always_finite(self):
        rng = np.random.default_rng(6)
        book = _random_codebook(rng)
        extreme = np.array([[1e6, -1e6, 1e6], [0.0, 0.0, 0.0]])
        assert np.isfinite(em_step(book, extreme, 1e-3)[1])

    def test_matches_direct_density_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            book = _random_codebook(rng, k=int(rng.integers(1, 5)), dim=int(rng.integers(1, 4)))
            data = rng.normal(0, 2, (12, book.dim))
            expected = direct_loglik(book.weights, book.means, book.variances, data)
            assert em_step(book, data, 1e-3)[1] == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        book = _random_codebook(rng, dim=3)
        with pytest.raises(ValueError, match="dimension"):
            em_step(book, np.zeros((5, 2)), 1e-3)


class TestEncode:
    def test_descriptor_at_dominant_mean(self):
        book = GmmCodebook(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [100.0, 100.0]]),
            variances=np.ones((2, 2)),
            modality="audio",
        )
        vector = encode(book, _dset("s", [[0.0, 0.0]]))
        assert vector.values[0] >= 0.99

    def test_repeated_descriptor_equals_single(self):
        rng = np.random.default_rng(10)
        book = _random_codebook(rng)
        row = rng.normal(0, 1, 3).astype(np.float32)
        one = encode(book, _dset("s", row[None, :]))
        many = encode(book, DescriptorSet("s", np.tile(row, (25, 1))))
        assert np.allclose(one.values, many.values, atol=1e-12)

    def test_equidistant_symmetry(self):
        book = GmmCodebook(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.0], [1.0]]),
            variances=np.ones((2, 1)),
            modality="audio",
        )
        vector = encode(book, _dset("s", [[0.0]]))
        assert np.allclose(vector.values, [0.5, 0.5], atol=1e-9)

    def test_posterior_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            book = _random_codebook(rng, k=int(rng.integers(2, 6)), dim=int(rng.integers(1, 4)))
            x = rng.normal(0, 2, book.dim).astype(np.float32)
            got = encode(book, _dset("s", x[None, :]))
            expected = direct_posterior(book.weights, book.means, book.variances, x.astype(np.float64))
            assert np.abs(got.values - expected).max() < 1e-9

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(13)
        book = _random_codebook(rng)
        rows = rng.normal(0, 2, (200, 3)).astype(np.float32)
        a = encode(book, DescriptorSet("s", rows))
        b = encode(book, DescriptorSet("s", rows[rng.permutation(200)]))
        assert np.array_equal(a.values, b.values)

    def test_simplex_property(self):
        rng = np.random.default_rng(14)
        book = _random_codebook(rng)
        vector = encode(book, _dset("s", rng.normal(0, 3, (50, 3))))
        assert (vector.values >= 0).all()
        assert vector.values.sum() == pytest.approx(1.0, abs=1e-6)

    def test_empty_set_flagged_zero(self):
        rng = np.random.default_rng(15)
        book = _random_codebook(rng)
        vector = encode(book, DescriptorSet("s", np.empty((0, 3), dtype=np.float32)))
        assert vector.n_descriptors == 0
        assert np.all(vector.values == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 40),
        dim=st.integers(1, 8),
        n=st.one_of(st.just(1), st.integers(2, 60), st.integers(BLOCK + 1, BLOCK + 40)),
        distinct_frac=st.floats(0.0, 1.0),
    )
    # One row alone in the last block: a matrix product may round it differently
    # from the same row inside a larger block.
    @example(seed=1, k=20, dim=1, n=BLOCK + 1, distinct_frac=1.0)
    def test_pooling_properties(self, seed, k, dim, n, distinct_frac):
        rng = np.random.default_rng(seed)
        book = _random_codebook(rng, k=k, dim=dim)
        distinct = rng.normal(0.0, 2.0, (max(1, int(round(distinct_frac * n))), dim)).astype(np.float32)
        rows = distinct[rng.integers(len(distinct), size=n)]  # repeats whenever distinct < n
        pooled = encode(book, DescriptorSet("s", rows)).values
        shuffled = encode(book, DescriptorSet("s", rows[rng.permutation(n)])).values
        assert np.array_equal(pooled, shuffled)
        assert abs(pooled.sum() - 1.0) <= 1e-9
        expected = np.mean(
            [direct_posterior(book.weights, book.means, book.variances, row.astype(np.float64)) for row in rows],
            axis=0,
        )
        assert np.abs(pooled - expected).max() <= 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(16)
        book = _random_codebook(rng, dim=3)
        with pytest.raises(ValueError, match="mismatch"):
            encode(book, _dset("s", np.zeros((1, 2))))


class TestIo:
    def test_codebook_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        book = _random_codebook(rng, k=5, dim=4)
        path = tmp_path / "b.gmm"
        write_codebook(path, book)
        back = read_codebook(path)
        assert back.modality == "audio"
        assert np.array_equal(back.weights, book.weights)
        assert np.array_equal(back.means, book.means)
        assert np.array_equal(back.variances, book.variances)

    def test_descriptor_roundtrip(self, tmp_path):
        rng = np.random.default_rng(18)
        dset = _dset("segment-042", rng.random((7, 5)))
        path = tmp_path / "d.dsc"
        write_descriptors(path, dset)
        back = read_descriptors(path)
        assert back.segment_id == "segment-042"
        assert np.array_equal(back.descriptors, dset.descriptors)

    def test_empty_descriptor_roundtrip(self, tmp_path):
        dset = DescriptorSet("empty", np.empty((0, 64), dtype=np.float32))
        path = tmp_path / "e.dsc"
        write_descriptors(path, dset)
        back = read_descriptors(path)
        assert len(back) == 0
        assert back.dim == 64
