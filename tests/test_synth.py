import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kp3d import geometry, litefpn, synth
from kp3d.heatmap import Keypoint
from kp3d.losses import AttentionParams
from kp3d.synth import OracleModel, SceneSpec
from oracles import dense_oracle_pyramid


MODEL = OracleModel()


def scenes_for(seeds, n_objects=5):
    return [synth.generate_scene(SceneSpec(seed=s, n_objects=n_objects)) for s in seeds]


class TestGenerateScene:
    def test_deterministic_in_seed(self):
        a = synth.generate_scene(SceneSpec(seed=9, n_objects=6))
        b = synth.generate_scene(SceneSpec(seed=9, n_objects=6))
        assert a.objects == b.objects

    def test_empty_scene(self):
        assert synth.generate_scene(SceneSpec(seed=0, n_objects=0)).objects == ()

    def test_projected_centers_inside_image(self):
        for seed in range(200):
            scene = synth.generate_scene(SceneSpec(seed=seed, n_objects=6))
            h, w = synth.IMAGE_SIZE
            for box, _ in scene.objects:
                u, v = geometry.project_to_image(box.center, scene.calib)
                assert 0 <= u < w and 0 <= v < h

    def test_one_camera_and_only_seed_and_count_settable(self):
        scene = synth.generate_scene(SceneSpec(seed=1, n_objects=2))
        assert scene.calib is synth.CALIB
        assert [f.name for f in dataclasses.fields(SceneSpec)] == ["seed", "n_objects"]
        assert [f.name for f in dataclasses.fields(OracleModel)] == ["feature_noise"]
        with pytest.raises(ValueError, match="non-negative"):
            SceneSpec(n_objects=-1)

    def test_distinct_quarter_grid_keypoints(self):
        scene = synth.generate_scene(SceneSpec(seed=1, n_objects=8))
        kps, _, _ = synth.encode_objects(scene)
        assert len(kps) == 8
        assert len(set(kps)) == 8


class TestOraclePyramid:
    @pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_noise(self, noise):
        with pytest.raises(ValueError, match="feature_noise"):
            OracleModel(feature_noise=noise)

    def test_planted_head_exact_at_zero_noise(self):
        scene = synth.generate_scene(SceneSpec(seed=2, n_objects=6))
        _, pyramid = synth.oracle_pyramid(scene, MODEL)
        kps, taus, _ = synth.encode_objects(scene)
        emb = litefpn.gather_fuse(
            pyramid, [Keypoint(cls=0, u=u, v=v, score=1.0) for u, v in kps]
        )
        out = litefpn.regress(emb, MODEL.head)
        assert np.abs(out - taus).max() < 1e-9

    def test_gt_heatmap_is_one_at_keypoints(self):
        scene = synth.generate_scene(SceneSpec(seed=3, n_objects=5))
        pred_hm, _ = synth.oracle_pyramid(scene, MODEL)
        kps, _, _ = synth.encode_objects(scene)
        for u, v in kps:
            assert pred_hm[0, v, u] == 1.0  # zero noise keeps the GT heatmap's scores

    def test_noise_monotonically_degrades_regression(self):
        errors = []
        for sigma in (0.1, 0.2):
            model = OracleModel(feature_noise=sigma)
            total = 0.0
            for scene in scenes_for(range(100)):
                _, pyramid = synth.oracle_pyramid(scene, model)
                kps, taus, _ = synth.encode_objects(scene)
                emb = litefpn.gather_fuse(
                    pyramid, [Keypoint(cls=0, u=u, v=v, score=1.0) for u, v in kps]
                )
                total += np.abs(litefpn.regress(emb, model.head) - taus).mean()
            errors.append(total / 100)
        assert errors[1] >= errors[0]

    def test_noisy_scores_are_regression_error_at_keypoints_only(self):
        scene = synth.generate_scene(SceneSpec(seed=6, n_objects=20))
        model = OracleModel(feature_noise=0.05)
        pred_hm, pyramid = synth.oracle_pyramid(scene, model)
        clean_hm, _ = synth.oracle_pyramid(scene, MODEL)
        kps, taus, _ = synth.encode_objects(scene)
        emb = litefpn.gather_fuse(
            pyramid, [Keypoint(cls=0, u=u, v=v, score=1.0) for u, v in kps]
        )
        err = np.abs(litefpn.regress(emb, model.head) - taus).sum(axis=1)
        expected = np.clip(1.0 - err, 0.0, 1.0)
        assert ((expected > 0.0) & (expected < 1.0)).any()
        u, v = np.array(kps).T
        assert np.abs(pred_hm[0, v, u] - expected).max() <= 1e-12
        elsewhere = np.ones(pred_hm.shape, dtype=bool)
        elsewhere[0, v, u] = False
        assert np.array_equal(pred_hm[elsewhere], clean_hm[elsewhere])

    def test_returns_fresh_arrays(self):
        # the noise is added in place: no call may hand out or reuse a shared buffer
        scene = synth.generate_scene(SceneSpec(seed=5, n_objects=8))
        model = OracleModel(feature_noise=0.05)

        def output_bytes(pred_hm, pyramid):
            return [pred_hm.tobytes(), *(level.tobytes() for level in pyramid.levels)]

        first = synth.oracle_pyramid(scene, model)
        original = output_bytes(*first)
        assert output_bytes(*synth.oracle_pyramid(scene, model)) == original
        pred_hm, pyramid = first
        for array in (pred_hm, *pyramid.levels):
            array.fill(7.0)
        assert output_bytes(*synth.oracle_pyramid(scene, model)) == original

    def test_empty_scene_outputs(self):
        scene = synth.generate_scene(SceneSpec(seed=0, n_objects=0))
        pred_hm, pyramid = synth.oracle_pyramid(scene, MODEL)
        assert pred_hm.max() == 0.0
        assert np.isfinite(pyramid.levels[0]).all()

    @pytest.mark.parametrize("far_first", [False, True], ids=["near_first", "far_first"])
    def test_collision_keeps_nearer_object(self, far_first):
        scene = synth.generate_scene(SceneSpec(seed=4, n_objects=3))
        near, cls = scene.objects[0]
        far = geometry.Box3D(
            (near.center[0], near.center[1], near.center[2] + 0.001), near.dims, near.yaw
        )
        objects = scene.objects + ((far, cls),)
        if far_first:
            objects = objects[::-1]
        crowded = synth.Scene(objects=objects, spec=scene.spec)
        with pytest.warns(UserWarning, match="collision"):
            kps, taus, boxes = synth.encode_objects(crowded)
        assert len(kps) == 3
        assert near in [b for b, _ in boxes]
        assert far not in [b for b, _ in boxes]


class TestRunPipeline:
    def test_zero_noise_perfect_ap(self):
        for seed in range(5):
            scene = synth.generate_scene(SceneSpec(seed=seed, n_objects=6))
            dets, report = synth.run_pipeline(scene, MODEL)
            assert report["ap"] == 100.0

    def test_zero_detections_with_k_zero(self):
        scene = synth.generate_scene(SceneSpec(seed=5, n_objects=3))
        dets, report = synth.run_pipeline(scene, MODEL, k=0)
        assert dets == []
        assert report["ap"] == 0.0

    def test_determinism(self):
        scene = synth.generate_scene(SceneSpec(seed=6, n_objects=5))
        dets_a, report_a = synth.run_pipeline(scene, MODEL)
        dets_b, report_b = synth.run_pipeline(scene, MODEL)
        assert dets_a == dets_b
        assert report_a == report_b

    def test_ap_degrades_with_noise(self):
        seeds = range(50)
        mean_aps = []
        for sigma in (0.0, 0.1, 0.5, 1.0):
            model = OracleModel(feature_noise=sigma)
            aps = [synth.run_pipeline(s, model)[1]["ap"] for s in scenes_for(seeds)]
            mean_aps.append(sum(aps) / len(aps))
        assert all(b <= a + 1e-9 for a, b in zip(mean_aps, mean_aps[1:]))

    @pytest.mark.parametrize("bad", [720.0, float("nan")])
    def test_wild_head_output_is_skipped_not_fatal(self, monkeypatch, bad):
        # an exp overflow clamps the dimension; a NaN decodes to no box at all
        scene = synth.generate_scene(SceneSpec(seed=3, n_objects=4))
        exact, _ = synth.run_pipeline(scene, MODEL)
        regress = litefpn.regress

        def wild(embedding, head):
            taus = regress(embedding, head)
            taus[0, 3] = bad
            return taus

        monkeypatch.setattr(synth.litefpn, "regress", wild)
        dets, report = synth.run_pipeline(scene, MODEL)
        if bad == 720.0:
            assert dets[0].box.dims[0] == geometry.DIM_CLAMP_MAX
            assert dets[1:] == exact[1:]
        else:
            assert dets == exact[1:]
        assert 0.0 <= report["ap"] <= 100.0

    def test_attention_weights_favor_low_iou(self):
        # at fixed scores, lower IoU must receive strictly larger weight
        from kp3d import losses

        rng = np.random.default_rng(0)
        for _ in range(50):
            n = 6
            ious = rng.random(n)
            batch = losses.LossBatch(
                np.zeros((n, 8)), np.zeros((n, 8)), scores=np.full(n, 0.8), ious=ious
            )
            w = losses.attention_weights(batch, AttentionParams(beta=0.5))
            order_iou = np.argsort(ious)
            order_w = np.argsort(-w)
            assert np.array_equal(order_iou, order_w)


class TestToyTrain:
    def test_planted_head_is_the_training_optimum(self):
        from kp3d import losses

        emb, targets, _, _, _ = synth.training_data(scenes_for(range(5)), MODEL)
        batch = losses.LossBatch(litefpn.regress(emb, MODEL.head), targets)
        value, _ = losses.attention_loss(batch, np.ones(batch.n))
        assert value < 1e-9

    def test_scenes_without_objects_have_no_training_data(self):
        with pytest.raises(ValueError, match="no training keypoints"):
            synth.training_data(scenes_for(range(2), n_objects=0), MODEL)
        with pytest.raises(ValueError, match="no training keypoints"):
            synth.training_data([], MODEL)

    def test_l1_convergence_to_planted_head(self):
        scenes = scenes_for(range(10))
        head, trace = synth.toy_train(scenes, MODEL, loss="l1", epochs=200)
        assert np.abs(head.weights - MODEL.head.weights).max() < 1e-3
        assert np.abs(head.bias - MODEL.head.bias).max() < 1e-3

    def test_loss_trace_decreases_on_average(self):
        scenes = scenes_for(range(10))
        _, trace = synth.toy_train(scenes, MODEL, loss="l1", epochs=100)
        head_mean = sum(trace[:10]) / 10
        tail_mean = sum(trace[-10:]) / 10
        assert tail_mean < head_mean

    def test_attention_with_zero_beta_matches_l1(self):
        # zero noise makes all sampled scores exactly 1, so beta = 0 gives
        # uniform unit weights and the identical descent trajectory
        scenes = scenes_for(range(6))
        head_a, trace_a = synth.toy_train(
            scenes, MODEL, loss="attention", epochs=30, attention_params=AttentionParams(beta=0.0)
        )
        head_l, trace_l = synth.toy_train(scenes, MODEL, loss="l1", epochs=30)
        assert np.array_equal(head_a.weights, head_l.weights)
        assert trace_a == trace_l

    def test_attention_undecodable_rows_keep_zero_iou(self, monkeypatch):
        from kp3d import losses

        scenes = scenes_for(range(2))
        gt_rows = geometry.box_array(synth.training_data(scenes, MODEL)[2])
        weights = losses.attention_weights
        seen = []

        def failing_decode(taus, *args):
            # every row decodes to its GT box, so each kept row scores IoU 1
            ok = np.ones(len(taus), dtype=bool)
            ok[0] = False  # as for a non-positive decoded depth
            return gt_rows.copy(), ok

        def recording_weights(batch, params):
            seen.append(batch.ious.copy())
            return weights(batch, params)

        monkeypatch.setattr(synth.geometry, "decode_rows", failing_decode)
        monkeypatch.setattr(losses, "attention_weights", recording_weights)
        synth.toy_train(scenes, MODEL, loss="attention", epochs=2)
        assert seen[0][0] == 0.0
        assert seen[0][1:] == pytest.approx(1.0, abs=1e-9)

    def test_divergence_guard(self, monkeypatch):
        from kp3d import losses

        loss = losses.attention_loss

        def exploding(batch, weights):
            value, grad = loss(batch, weights)
            return value + 1e7, grad

        monkeypatch.setattr(losses, "attention_loss", exploding)
        with pytest.raises(RuntimeError, match="diverged"):
            synth.toy_train(scenes_for(range(3)), MODEL, epochs=200)


def _cells(n, seed=0):
    """n distinct (v, u) cells of the 1/4 level, in a seeded random order."""
    h, w = (side // geometry.DOWNSAMPLE for side in synth.IMAGE_SIZE)
    flat = np.random.default_rng(seed).permutation(h * w)[:n]
    return flat // w, flat % w


def _draw(seed, stream, level, v, u):
    """The generator's values at cells (v, u) of one level."""
    empty = np.zeros(0, dtype=np.intp)
    return synth._normals(seed, stream, [(empty, empty)] * level + [(v, u)])[level]


class TestCellNormals:
    """The per-cell generator behind the oracle features: values at cells
    (v, u) of one level, keyed by (seed, stream)."""

    @given(
        st.integers(0, 2**70), st.sampled_from([synth._BACKGROUND, synth._NOISE]),
        st.integers(0, 2), st.integers(1, 60), st.randoms(use_true_random=False),
    )
    def test_same_bits_whatever_batch_order_or_size(self, seed, stream, level, n, rnd):
        v, u = _cells(n, seed=n)
        whole = _draw(seed, stream, level, v, u)
        order = list(range(n))
        rnd.shuffle(order)
        shuffled = _draw(seed, stream, level, v[order], u[order])
        assert np.array_equal(shuffled, whole[order])
        cut = rnd.randrange(n + 1)
        parts = [_draw(seed, stream, level, v[a:b], u[a:b]) for a, b in ((0, cut), (cut, n))]
        assert np.array_equal(np.concatenate(parts), whole)
        one = _draw(seed, stream, level, v[-1:], u[-1:])
        assert np.array_equal(one, whole[-1:])
        every_level = synth._normals(seed, stream, [(v, u)] * 3)
        assert np.array_equal(every_level[level], whole)

    def test_moments_and_ks_distance_of_standard_normal(self):
        draws = _draw(3, synth._BACKGROUND, 0, *_cells(2**14)).ravel()
        n = draws.size
        assert n == 2**17
        assert abs(draws.mean()) < 4 / math.sqrt(n)
        assert abs(draws.var() - 1.0) < 4 * math.sqrt(2 / n)  # var of s^2 is 2 / n at N(0, 1)
        x = np.sort(draws)
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
        ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert ks < 1.63 / math.sqrt(n)

    def test_streams_and_neighbouring_channels_uncorrelated(self):
        cells = _cells(2**14)
        background = _draw(3, synth._BACKGROUND, 0, *cells)
        noise = _draw(3, synth._NOISE, 0, *cells)
        bound = 4 / math.sqrt(background.size)
        assert abs(np.corrcoef(background.ravel(), noise.ravel())[0, 1]) < bound
        pairs = (background[:, :-1].ravel(), background[:, 1:].ravel())
        assert abs(np.corrcoef(*pairs)[0, 1]) < 4 / math.sqrt(pairs[0].size)

    def test_large_seeds_give_distinct_values(self):
        cells = _cells(8)
        values = [_draw(s, synth._BACKGROUND, 0, *cells) for s in (0, 2**63, 2**64 + 5)]
        assert len({a.tobytes() for a in values}) == 3
        scene = synth.generate_scene(SceneSpec(seed=2**64 + 5, n_objects=3))
        dets, report = synth.run_pipeline(scene, MODEL)
        assert report["ap"] == 100.0


class TestSparseBackbone:
    """Features are computed only at the cells the head reads, and the
    pipeline reads the same values as with features at every cell."""

    @pytest.mark.parametrize("n_objects", [5, 20])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_run_pipeline_equals_dense_reference(self, monkeypatch, noise, n_objects):
        model = OracleModel(feature_noise=noise)
        scenes = scenes_for(range(6), n_objects=n_objects)
        sparse = [synth.run_pipeline(s, model, k=100) for s in scenes]
        monkeypatch.setattr(synth, "oracle_pyramid", dense_oracle_pyramid)
        dense = [synth.run_pipeline(s, model, k=100) for s in scenes]
        assert sparse == dense

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_training_data_equals_dense_reference(self, monkeypatch, noise):
        model = OracleModel(feature_noise=noise)
        scenes = scenes_for(range(6), n_objects=20)
        sparse = synth.training_data(scenes, model)
        monkeypatch.setattr(synth, "oracle_pyramid", dense_oracle_pyramid)
        dense = synth.training_data(scenes, model)
        for a, b in zip(sparse, dense):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_levels_are_zero_except_at_keypoint_cells(self):
        scene = synth.generate_scene(SceneSpec(seed=4, n_objects=20))
        _, pyramid = synth.oracle_pyramid(scene, OracleModel(feature_noise=0.05))
        kps, _, _ = synth.encode_objects(scene)
        u, v = np.array(kps).T
        for level, stride in zip(pyramid.levels, litefpn.STRIDES):
            written = np.zeros(level.shape[:2], dtype=bool)
            written[v // (stride // 4), u // (stride // 4)] = True
            assert np.array_equal(level.any(axis=2), written)
