"""DTW distances, kernel similarity, Leiden clustering, mean trajectories."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scibreak import clustering
from scibreak.clustering import (
    _BATCH,
    DistanceMatrix,
    SimilarityMatrix,
    Trajectory,
    cluster_mean_trajectory,
    default_sigma,
    distance_matrix,
    dtw_distance,
    leiden_clusters,
    modularity,
    similarity_matrix,
    trajectories_from_series,
)
from scibreak.panel import SeriesTable

from conftest import assignments_of, means_of, members_of, singletons_of
from oracles import (
    brute_modularity,
    brute_refine,
    dp_dtw,
    exhaustive_dtw,
    exhaustive_dtw_per_component,
    node_move_gains,
)


def _traj(label, points):
    points = np.asarray(points, dtype=float)
    years = tuple(range(2000, 2000 + len(points)))
    return Trajectory(label, years, points)


@st.composite
def one_grid_trajectories(draw, min_count=2, max_count=12):
    """``min_count`` to ``max_count`` trajectories of 1-9 points on one year
    grid, labels shuffled, magnitudes from tiny to huge so that the kernel's
    scaling is not 1."""
    length = draw(st.integers(1, 9))
    count = draw(st.integers(min_count, max_count))
    values = draw(
        arrays(float, (count, length, 2), elements=st.floats(-1e6, 1e6, allow_nan=False))
    )
    scale = draw(st.sampled_from([1.0, 1e-200, 1e200]))
    years = tuple(range(1990, 1990 + length))
    labels = draw(st.permutations(range(count)))
    return [Trajectory(label, years, values[i] * scale) for i, label in enumerate(labels)]


class TestDtw:
    def test_identical_trajectories(self):
        t = _traj(1, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        assert dtw_distance(t, t) == 0.0

    def test_single_cell(self):
        assert dtw_distance(_traj(1, [[0, 0]]), _traj(2, [[3, 4]])) == 5.0

    def test_diagonal_path(self):
        a = _traj(1, [[0, 0], [1, 1]])
        b = _traj(2, [[0, 0], [2, 2]])
        assert dtw_distance(a, b) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_empty_rejected(self):
        empty = Trajectory(1, (), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            dtw_distance(empty, _traj(2, [[0, 0]]))

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            a = _traj(1, rng.random((n, 2)))
            b = _traj(2, rng.random((m, 2)))
            assert dtw_distance(a, b) == pytest.approx(
                exhaustive_dtw(a.points, b.points), abs=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_symmetry_and_self_distance(self, pa, pb):
        a = _traj(1, pa)
        b = _traj(2, pb)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a), abs=1e-12)
        assert dtw_distance(a, a) == 0.0
        assert dtw_distance(a, b) >= 0.0

    def test_per_component_mode(self):
        a = _traj(1, [[0, 0], [1, 0]])
        b = _traj(2, [[0, 1], [1, 1]])
        # each x-series warps for free, y differs by 1 at both steps
        assert dtw_distance(a, b, per_component=True) == pytest.approx(2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=24, max_size=24),
    )
    def test_per_component_matches_exhaustive_oracle(self, n, m, values):
        a = _traj(1, np.reshape(values[: 2 * n], (n, 2)))
        b = _traj(2, np.reshape(values[12 : 12 + 2 * m], (m, 2)))
        assert dtw_distance(a, b, per_component=True) == pytest.approx(
            exhaustive_dtw_per_component(a.points, b.points), abs=1e-12
        )


class TestDistanceMatrix:
    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(42)
        trajs = [_traj(i, rng.random((4, 2))) for i in range(5)]
        D = distance_matrix(trajs)
        assert D.labels == (0, 1, 2, 3, 4)
        assert np.allclose(D.matrix, D.matrix.T)
        assert np.diag(D.matrix).tolist() == [0.0] * 5

    def test_duplicate_labels_rejected(self):
        trajs = [_traj(1, [[0, 0]]), _traj(1, [[1, 1]])]
        with pytest.raises(ValueError):
            distance_matrix(trajs)

    @pytest.mark.parametrize("per_component", [False, True])
    @pytest.mark.parametrize(
        "lengths",
        [
            [64] * 40,  # 780 pairs: more than one batch of pairs
            [1] * 24,  # 276 one-point pairs: more than one batch too
        ],
        ids=["one-grid", "one-point"],
    )
    def test_batch_equals_one_pair_call(self, lengths, per_component):
        rng = np.random.default_rng(len(lengths))
        # labels out of order, so the matrix order is not the input order
        trajs = [
            _traj(label, rng.random((n, 2)))
            for label, n in zip(rng.permutation(len(lengths)), lengths)
        ]
        D = distance_matrix(trajs, per_component=per_component)
        ordered = sorted(trajs, key=lambda t: t.subfield_id)
        assert D.labels == tuple(t.subfield_id for t in ordered)
        for i, a in enumerate(ordered):
            assert D.matrix[i, i] == 0.0
            for j in range(i + 1, len(ordered)):
                expected = dtw_distance(a, ordered[j], per_component=per_component)
                assert D.matrix[i, j] == expected
                assert D.matrix[j, i] == expected

    def test_empty_trajectory_rejected(self):
        trajs = [Trajectory(label, (), np.zeros((0, 2))) for label in (1, 2)]
        with pytest.raises(ValueError, match="empty"):
            distance_matrix(trajs)

    @pytest.mark.parametrize(
        "years", [(2000,), (2001, 2002)], ids=["other-length", "same-length-shifted"]
    )
    def test_mixed_year_grids_rejected(self, years):
        trajs = [_traj(1, [[0, 0], [1, 1]]), Trajectory(2, years, np.zeros((len(years), 2)))]
        with pytest.raises(ValueError, match="year grids"):
            distance_matrix(trajs)

    @pytest.mark.parametrize("per_component", [False, True])
    def test_every_pair_matches_full_dp(self, per_component):
        # 26 trajectories on one grid make 325 pairs, more than a batch
        assert 26 * 25 // 2 > _BATCH
        rng = np.random.default_rng(26)
        trajs = [_traj(label, rng.random((12, 2))) for label in range(26)]
        D = distance_matrix(trajs, per_component=per_component)
        first, second = np.triu_indices(len(trajs), 1)
        assert len(first) == 325
        for i, j in zip(first.tolist(), second.tolist()):
            expected = dp_dtw(trajs[i].points, trajs[j].points, per_component)
            assert D.matrix[i, j] == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
    def test_extreme_magnitudes_match_full_dp(self, scale):
        # squares of these coordinates overflow or underflow unless each
        # pair is rescaled first
        rng = np.random.default_rng(200)
        for _ in range(20):
            a = _traj(1, rng.random((int(rng.integers(1, 9)), 2)) * scale)
            b = _traj(2, rng.random((int(rng.integers(1, 9)), 2)) * scale)
            got = dtw_distance(a, b)
            assert math.isfinite(got)
            assert got == pytest.approx(dp_dtw(a.points, b.points), rel=1e-12, abs=0)

    def test_large_and_tiny_pairs_in_one_batch(self):
        # four trajectories of one length share a batch; each pair is
        # scaled on its own, so the tiny pair is not flushed to zero
        rng = np.random.default_rng(11)
        trajs = [
            _traj(label, rng.random((6, 2)) * scale)
            for label, scale in enumerate([1e200, 1e200, 1e-200, 1e-200])
        ]
        D = distance_matrix(trajs)
        for i, j in zip(*np.triu_indices(4, 1)):
            expected = dp_dtw(trajs[i].points, trajs[j].points)
            assert math.isfinite(D.matrix[i, j])
            assert D.matrix[i, j] == pytest.approx(expected, rel=1e-12, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(one_grid_trajectories(), st.booleans())
    def test_every_cell_is_bit_equal_to_its_pair(self, trajs, per_component):
        D = distance_matrix(trajs, per_component=per_component)
        ordered = sorted(trajs, key=lambda t: t.subfield_id)
        expected = np.zeros((len(ordered), len(ordered)))
        for i, j in zip(*np.triu_indices(len(ordered), 1)):
            pair = dtw_distance(ordered[i], ordered[j], per_component=per_component)
            expected[i, j] = expected[j, i] = pair
        assert D.matrix.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(one_grid_trajectories(min_count=1, max_count=6), st.booleans())
    # one-point trajectories whose scaling is not 1: a kernel that scaled the
    # caller's points in place changed these, and dtw(a, b) != dtw(b, a)
    @example([_traj(1, [[3.0, 4.0]]), _traj(2, [[0.5, 0.25]])], False)
    @example([_traj(1, [[3.0, 4.0]]), _traj(2, [[0.5, 0.25]])], True)
    def test_inputs_are_never_changed(self, trajs, per_component):
        before = [t.points.copy() for t in trajs]
        distance_matrix(trajs, per_component=per_component)
        for a in trajs:
            for b in trajs:
                dtw_distance(a, b, per_component=per_component)
        for t, points in zip(trajs, before):
            assert t.points.tobytes() == points.tobytes()


class TestSimilarity:
    def test_zero_distance_gives_unit(self):
        D = DistanceMatrix((1, 2), np.array([[0.0, 0.0], [0.0, 0.0]]))
        # 2 sigma^2 underflows to 0 at sigma 1e-300: a zero distance must not
        # become 0/0
        for sigma in (1.0, 1e-300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert similarity_matrix(D, sigma).matrix.tolist() == [[1, 1], [1, 1]]

    def test_kernel_at_sigma(self):
        for sigma in (2.0, 1e-300):
            D = DistanceMatrix((1, 2), np.array([[0.0, sigma], [sigma, 0.0]]))
            S = similarity_matrix(D, sigma)
            assert S.matrix[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_tiny_sigma_far_pairs_are_dissimilar(self):
        D = DistanceMatrix((1, 2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert similarity_matrix(D, 1e-300).matrix.tolist() == [[1, 0], [0, 1]]

    def test_monotone_decay_and_bounds(self):
        distances = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 50.0])
        n = len(distances)
        D = DistanceMatrix(
            tuple(range(n)), np.abs(distances[:, None] - distances[None, :])
        )
        S = similarity_matrix(D, 1.5)
        row = S.matrix[0]
        assert (np.diff(row) < 0).all()
        assert (S.matrix > 0).all()
        assert (S.matrix <= 1.0).all()

    def test_bad_sigma(self):
        D = DistanceMatrix((1, 2), np.zeros((2, 2)))
        for sigma in (0.0, -1.0):
            with pytest.raises(ValueError):
                similarity_matrix(D, sigma)

    def test_default_sigma_is_offdiagonal_std(self):
        matrix = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        D = DistanceMatrix((1, 2, 3), matrix)
        off = matrix[~np.eye(3, dtype=bool)]
        assert default_sigma(D) == pytest.approx(float(np.std(off)))

    def test_default_sigma_degenerate_fallback(self):
        D = DistanceMatrix((1, 2), np.zeros((2, 2)))
        assert default_sigma(D) == 1.0


def _block_similarity(sizes, within=0.9, across=0.01):
    n = sum(sizes)
    matrix = np.full((n, n), across)
    start = 0
    for size in sizes:
        matrix[start : start + size, start : start + size] = within
        start += size
    np.fill_diagonal(matrix, 1.0)
    return SimilarityMatrix(tuple(range(n)), matrix, 1.0)


class TestLeidenClusters:
    def test_two_block_recovery(self):
        similarity = _block_similarity([3, 4])
        result = leiden_clusters(similarity, seed=5)
        assert len(members_of(result)) == 2
        assert singletons_of(result) == ()
        assert members_of(result)[1] == (3, 4, 5, 6)  # larger block first
        assert members_of(result)[2] == (0, 1, 2)

    def test_fixed_seed_reproducible(self):
        similarity = _block_similarity([4, 3, 5], within=0.7, across=0.05)
        first = leiden_clusters(similarity, seed=11)
        second = leiden_clusters(similarity, seed=11)
        assert assignments_of(first) == assignments_of(second)
        assert first.quality == second.quality

    def test_all_equal_similarity_is_deterministic(self):
        n = 6
        matrix = np.ones((n, n))
        similarity = SimilarityMatrix(tuple(range(n)), matrix, 1.0)
        first = leiden_clusters(similarity, seed=3)
        second = leiden_clusters(similarity, seed=3)
        assert assignments_of(first) == assignments_of(second)
        for label, cluster in assignments_of(first).items():
            if cluster is None:
                assert label in singletons_of(first)
            else:
                assert len(members_of(first)[cluster]) >= 2

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(43)
        base = _block_similarity([3, 3, 2], within=0.8, across=0.1)
        perm = rng.permutation(8)
        shuffled = SimilarityMatrix(
            tuple(int(base.labels[i]) for i in perm),
            base.matrix[np.ix_(perm, perm)],
            1.0,
        )
        assert assignments_of(leiden_clusters(base, seed=9)) == (
            assignments_of(leiden_clusters(shuffled, seed=9))
        )

    def test_too_few_labels(self):
        similarity = SimilarityMatrix((1,), np.ones((1, 1)), 1.0)
        with pytest.raises(ValueError):
            leiden_clusters(similarity, seed=0)

    @pytest.mark.parametrize(
        "labels, matrix, resolution, message",
        [
            ((0, 1, 2), np.array([[1, 0.5, 0], [0.4, 1, 0], [0, 0, 1]]), 1.0, "symmetric"),
            ((0, 1, 2), np.array([[1, 0.5, 0], [0.5, 0.9, 0], [0, 0, 1]]), 1.0, "unit diagonal"),
            ((0, 1, 2), np.array([[1, -0.5, 0], [-0.5, 1, 0], [0, 0, 1]]), 1.0, "negative"),
            ((0,), np.ones((1, 1)), 1.0, "at least 2"),
            ((0, 1), np.ones((2, 2)), 0.0, "resolution"),
            # a 3 x 3 block of a larger matrix was once clustered silently,
            # and more labels than rows raised IndexError
            ((0, 1, 2), np.ones((4, 4)), 1.0, "3 x 3"),
            ((0, 1, 2, 3, 4), np.ones((4, 4)), 1.0, "5 x 5"),
            # a symmetric inf would give quality nan, and nan != nan would make
            # a nan read as asymmetric: each is refused as not finite
            ((0, 1, 2), np.array([[1, np.inf, 0], [np.inf, 1, 0], [0, 0, 1]]), 1.0, "finite"),
            ((0, 1, 2), np.array([[1, np.nan, 0], [np.nan, 1, 0], [0, 0, 1]]), 1.0, "finite"),
        ],
        ids=["asymmetric", "non-unit-diagonal", "negative", "one-label", "zero-resolution",
             "fewer-labels-than-rows", "more-labels-than-rows", "inf", "nan"],
    )
    def test_invalid_graph_rejected(self, labels, matrix, resolution, message):
        similarity = SimilarityMatrix(labels, matrix, 1.0)
        with pytest.raises(ValueError, match=message):
            leiden_clusters(similarity, resolution=resolution, seed=0)

    def test_singleton_flagging(self):
        # two tight blocks plus one node similar to nothing; a uniformly
        # weak node only separates above resolution 1 (the null model makes
        # joining some block a wash at resolution 1)
        matrix = np.full((7, 7), 0.01)
        matrix[:3, :3] = 0.9
        matrix[3:6, 3:6] = 0.9
        matrix[6, :] = 1e-6
        matrix[:, 6] = 1e-6
        np.fill_diagonal(matrix, 1.0)
        result = leiden_clusters(
            SimilarityMatrix(tuple(range(7)), matrix, 1.0),
            resolution=2.0,
            seed=2,
        )
        assert singletons_of(result) == (6,)
        assert assignments_of(result)[6] is None
        assert len(members_of(result)) == 2


def _membership(result):
    """Community index per canonical label; singletons get their own."""
    assignments = assignments_of(result)
    labels = sorted(assignments)
    return [
        -1 - i if assignments[label] is None else assignments[label]
        for i, label in enumerate(labels)
    ]


def _blob_similarity(seed, n, blobs, scale=1.0):
    """Gaussian kernel over n points scattered around seeded blob centres,
    at ``scale`` times the default width."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(blobs, 2))[rng.integers(0, blobs, n)] * 3
    points += rng.normal(size=(n, 2))
    distances = DistanceMatrix(
        tuple(range(n)), np.linalg.norm(points[:, None] - points[None], axis=-1)
    )
    return similarity_matrix(distances, default_sigma(distances) * scale)


class TestLeidenCore:
    def test_quality_matches_modularity(self):
        rng = np.random.default_rng(44)
        W = rng.random((10, 10))
        W = 0.5 * (W + W.T)
        np.fill_diagonal(W, 1.0)
        result = leiden_clusters(SimilarityMatrix(tuple(range(10)), W, 1.0), seed=1)
        np.fill_diagonal(W, 0.0)
        assert result.quality == pytest.approx(
            modularity(W, _membership(result)), abs=1e-12
        )

    def test_partition_beats_singletons_and_whole(self):
        W = np.full((6, 6), 0.01)
        W[:3, :3] = 0.9
        W[3:, 3:] = 0.9
        np.fill_diagonal(W, 1.0)
        result = leiden_clusters(SimilarityMatrix(tuple(range(6)), W, 1.0), seed=7)
        np.fill_diagonal(W, 0.0)
        q_found = result.quality
        assert q_found >= modularity(W, list(range(6)))
        assert q_found >= modularity(W, [0] * 6)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 14).flatmap(
            lambda n: st.tuples(
                st.integers(0, 2**32 - 1),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
            )
        ),
        st.sampled_from([0.5, 1.0, 1.5]),
    )
    def test_modularity_matches_its_definition(self, drawn, resolution):
        seed, labels = drawn
        n = len(labels)
        W = np.random.default_rng(seed).random((n, n))
        W = W + W.T
        np.fill_diagonal(W, 0.0)
        for membership in (labels, list(range(n)), [0] * n):
            assert modularity(W, membership, resolution) == pytest.approx(
                brute_modularity(W, membership, resolution), abs=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(8, 60),
        st.integers(1, 5),
        st.sampled_from([0.5, 1.0, 1.5, 3.0]),
    )
    def test_no_merge_of_two_communities_raises_modularity(self, seed, n, blobs, resolution):
        # gamma-separation: the returned partition is a local optimum against
        # merging any two of its communities, singletons included
        similarity = _blob_similarity(seed, n, blobs)
        result = leiden_clusters(similarity, resolution=resolution, seed=seed % 1000)
        W = similarity.matrix.copy()
        np.fill_diagonal(W, 0.0)
        membership = _membership(result)
        _, community = np.unique(membership, return_inverse=True)
        indicator = np.eye(community.max() + 1)[community]
        between = indicator.T @ W @ indicator
        tot = W.sum(axis=1) @ indicator
        if len(tot) < 2:
            return
        two_m = W.sum()
        gain = 2 * between / two_m - 2 * resolution * np.outer(tot, tot) / two_m**2
        np.fill_diagonal(gain, -np.inf)
        a, b = np.unravel_index(np.argmax(gain), gain.shape)
        merged = np.where(community == b, a, community)
        assert gain[a, b] == pytest.approx(
            modularity(W, merged, resolution) - modularity(W, community, resolution), abs=1e-12
        )
        assert gain[a, b] <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 10).flatmap(
            lambda n: st.tuples(
                st.integers(0, 2**32 - 1),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
            )
        ),
        st.sampled_from([0.5, 1.0, 1.5, 3.0]),
    )
    def test_node_move_gain_matches_modularity(self, drawn, resolution):
        # every move of every node, into each community and into an empty one
        seed, labels = drawn
        n = len(labels)
        W = np.random.default_rng(seed).random((n, n))
        W = W + W.T
        np.fill_diagonal(W, 0.0)
        _, community = np.unique(labels, return_inverse=True)
        gains = node_move_gains(W, labels, resolution)
        assert gains.shape == (n, community.max() + 2)
        before = modularity(W, community, resolution)
        for v in range(n):
            for target in range(gains.shape[1]):
                moved = community.copy()
                moved[v] = target
                assert gains[v, target] == pytest.approx(
                    modularity(W, moved, resolution) - before, abs=1e-12
                )

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the level loop runs one Leiden iteration, and "
        "only iterating until the partition is stable guarantees node optimality",
    )
    def test_no_single_node_move_raises_modularity(self):
        # Traag, Waltman & van Eck 2019 prove node optimality once an
        # iteration leaves the partition unchanged: no node can then move to
        # another community, or alone into an empty one, and raise modularity
        improvable = []
        for s in range(30):
            rng = np.random.default_rng(1000 + s)
            n, blobs = int(rng.integers(20, 121)), int(rng.integers(2, 7))
            similarity = _blob_similarity(s, n, blobs)
            W = similarity.matrix.copy()
            np.fill_diagonal(W, 0.0)
            for resolution in (0.5, 1.0, 1.5, 3.0):
                result = leiden_clusters(similarity, resolution=resolution, seed=s)
                gain = node_move_gains(W, _membership(result), resolution).max()
                if gain > 1e-12:
                    improvable.append((s, n, blobs, resolution, gain))
        assert improvable == []

    # (graph seed, nodes, blobs, kernel width scale, resolution, Leiden seed,
    # cluster id by label, modularity).  The first four reach the three
    # branches no other test tells apart: a node striking out alone in local
    # moving, a refinement node that is not well connected, and a
    # subcommunity that is not.  Deleting any one of them changes some pinned
    # result.  The last reaches the level loop's early break: refinement
    # merges nothing at the second level.
    @pytest.mark.parametrize(
        "seed, n, blobs, scale, resolution, leiden_seed, clusters, quality",
        [
            (3860345312, 8, 1, 1.0, 1.5, 818,
             [2, 1, 2, 1, 1, 2, 1, None], -0.10045080633774384),
            (3116031787, 34, 1, 1.0, 1.5, 787,
             [3, 1, 2, 1, 3, 1, 4, 4, None, 5, 2, None, None, 1, 4, 3, 2,
              4, 1, 1, 2, 5, 2, 2, 1, 3, 5, 5, 4, 1, 3, 3, 2, 1], 0.08666471156290322),
            (2080416671, 6, 2, 0.5, 1.5, 953, [1, 2, 1, None, 1, 2], 0.09418095328637378),
            (3550707941, 8, 3, 0.5, 3.0, 360,
             [1, 2, 1, None, 2, None, None, None], -0.36997618581000014),
            (3200627078, 10, 4, 0.25, 3.0, 699,
             [1, 2, 3, 4, 1, 2, None, 4, None, 3], -0.6409001141106624),
        ],
        ids=["skips-8", "skips-34", "skips-6", "strike-out-8", "early-break-10"],
    )
    def test_pinned_partitions(
        self, seed, n, blobs, scale, resolution, leiden_seed, clusters, quality
    ):
        similarity = _blob_similarity(seed, n, blobs, scale)
        result = leiden_clusters(similarity, resolution=resolution, seed=leiden_seed)
        assert [assignments_of(result)[label] for label in range(n)] == clusters
        assert result.quality == pytest.approx(quality, abs=1e-12)

    def test_refine_matches_brute_refine(self):
        # leaf graphs (zero diagonal), some with an isolated node or equal
        # weights, and aggregate-level graphs summed over a random grouping
        # of their nodes, which carry a nonzero diagonal
        merged = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            W = np.ones((n, n)) if seed % 5 == 0 else rng.random((n, n)) ** 3
            W = np.triu(W, 1) + np.triu(W, 1).T
            if seed % 3 == 0:
                W[0] = W[:, 0] = 0.0
            if seed % 2:
                _, groups = np.unique(rng.integers(0, n // 2 + 1, n), return_inverse=True)
                indicator = np.eye(groups.max() + 1)[groups]
                W = indicator.T @ W @ indicator
                n = len(W)
            strengths, two_m = W.sum(axis=1), float(W.sum())
            if two_m == 0:
                continue
            for communities in (1, 2, max(1, n // 3)):
                _, membership = np.unique(rng.integers(0, communities, n), return_inverse=True)
                for resolution in (0.5, 1.0, 3.0):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    refined = clustering._refine(
                        W, strengths, two_m, membership, resolution, ours
                    )
                    expected = brute_refine(W, strengths, two_m, membership, resolution, theirs)
                    assert refined.tolist() == expected.tolist()
                    assert ours.getstate() == theirs.getstate()
                    merged += int((refined != np.arange(n)).sum())
        assert merged > 1000

    def test_paper_shape_partitions_match_brute_refine(self, monkeypatch):
        similarity = _blob_similarity(252, 252, 12)
        ours = [leiden_clusters(similarity, seed=seed) for seed in range(10)]
        monkeypatch.setattr(clustering, "_refine", brute_refine)
        for seed, result in enumerate(ours):
            expected = leiden_clusters(similarity, seed=seed)
            assert result.cluster.tolist() == expected.cluster.tolist()
            assert result.quality == expected.quality

    def test_negative_weights_rejected(self):
        W = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError, match="negative"):
            leiden_clusters(SimilarityMatrix((0, 1), W, 1.0))

    def test_zero_graph_all_singletons(self):
        result = leiden_clusters(SimilarityMatrix((5, 3, 4, 6), np.eye(4), 1.0))
        assert singletons_of(result) == (3, 4, 5, 6)
        assert members_of(result) == {}
        assert result.quality == 0.0


class TestMeanTrajectories:
    def test_duplicate_member_mean_is_identity(self):
        t = _traj(1, [[0.1, 0.2], [0.3, 0.4]])
        u = Trajectory(2, t.years, t.points.copy())
        result = _cluster_of([t, u])
        means = means_of(*cluster_mean_trajectory(result, [t, u]))
        assert np.allclose(means[1].points, t.points)

    def test_midpoint(self):
        t = _traj(1, [[0, 0], [0, 0]])
        u = _traj(2, [[1, 1], [1, 1]])
        means = means_of(*cluster_mean_trajectory(_cluster_of([t, u]), [t, u]))
        assert np.allclose(means[1].points, 0.5)

    def test_attached_to_result(self):
        from scibreak.clustering import with_mean_trajectories

        t = _traj(1, [[0, 0], [0, 0]])
        u = _traj(2, [[1, 1], [1, 1]])
        result = with_mean_trajectories(_cluster_of([t, u]), [t, u])
        assert result.means is not None
        assert np.allclose(means_of(result.years, result.means)[1].points, 0.5)

    def test_mean_of_identical_members_invariant_in_count(self):
        base = _traj(1, [[0.2, 0.8], [0.6, 0.4]])
        for k in (2, 3, 5):
            members = [Trajectory(i, base.years, base.points.copy()) for i in range(k)]
            means = means_of(*cluster_mean_trajectory(_cluster_of(members), members))
            assert np.allclose(means[1].points, base.points)

    def test_mean_inside_convex_hull_per_year(self):
        rng = np.random.default_rng(45)
        members = [_traj(i, rng.random((6, 2))) for i in range(4)]
        means = means_of(*cluster_mean_trajectory(_cluster_of(members), members))
        stack = np.stack([m.points for m in members])
        assert (means[1].points >= stack.min(axis=0) - 1e-12).all()
        assert (means[1].points <= stack.max(axis=0) + 1e-12).all()

    def test_mismatched_grids_rejected(self):
        t = _traj(1, [[0, 0], [1, 1]])
        u = Trajectory(2, (1990, 1991), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            cluster_mean_trajectory(_cluster_of([t, u]), [t, u])


def _cluster_of(members):
    """A ClusteringResult placing all member labels in cluster 1."""
    from scibreak.clustering import ClusteringResult

    labels = np.sort([t.subfield_id for t in members])
    return ClusteringResult(labels=labels, cluster=np.ones(len(labels), dtype=np.int64), quality=0.0)


class TestTrajectoriesFromSeries:
    def test_one_trajectory_per_subfield_row(self):
        series = SeriesTable(
            subfields=np.array([3101, 3102]),
            years=np.array([2000, 2001]),
            n_total=np.full((2, 2), 10),
            n_bt=np.full((2, 2), 2),
            n_cn=np.ones((2, 2), dtype=int),
            n_di=np.ones((2, 2), dtype=int),
            unlabeled=np.zeros(2, dtype=int),
            scaled_cn=np.array([[0.1, 0.2], [0.3, 0.4]]),
            scaled_di=np.array([[0.5, 0.6], [0.7, 0.8]]),
        )
        trajs = trajectories_from_series(series)
        assert [t.subfield_id for t in trajs] == [3101, 3102]
        assert all(t.years == (2000, 2001) for t in trajs)
        assert trajs[1].points.tolist() == [[0.3, 0.7], [0.4, 0.8]]

    def test_requires_scaled_counts(self):
        ones = np.ones((1, 1), dtype=int)
        series = SeriesTable(
            subfields=np.array([3101]),
            years=np.array([2000]),
            n_total=ones,
            n_bt=0 * ones,
            n_cn=0 * ones,
            n_di=0 * ones,
            unlabeled=np.zeros(1, dtype=int),
        )
        with pytest.raises(ValueError):
            trajectories_from_series(series)
