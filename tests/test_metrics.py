from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenescale import (
    CameraModel,
    MetricsReport,
    Person,
    Scene,
    SchemaError,
    evaluate_scenes,
)
from scenescale.metrics import TIE_EPSILON, _order_correct, pair_sum_discrepancy
from scenescale.synth import joint_template

CAM = CameraModel(1000.0, (1920, 1080))


def frame(depths=None, heights=None, positions=None):
    """Scene with one person per entry; only translation and scale matter."""
    if positions is None:
        positions = [(0.4 * i, 0.0) for i in range(len(depths or heights))]
    if depths is None:
        depths = [5.0] * len(positions)
    if heights is None:
        heights = [1.7] * len(positions)
    persons = []
    for (x, y), z, h in zip(positions, depths, heights):
        persons.append(
            Person(
                joints=joint_template(1.7),
                rotation=np.eye(3),
                translation=np.array([x, y, z]),
                scale=h / 1.7,
            )
        )
    return Scene(persons, CAM)


# --- depth ordering ---


def test_depth_order_perfect():
    frames = [frame(depths=[3.0, 5.0, 7.0]), frame(depths=[4.0, 2.0])]
    assert evaluate_scenes(frames, frames).d_ord == 100.0


def test_depth_order_swapped_pair():
    gt = [frame(depths=[3.0, 5.0])]
    est = [frame(depths=[5.0, 3.0])]
    assert evaluate_scenes(est, gt).d_ord == 0.0


def test_depth_order_one_of_three_wrong():
    gt = [frame(depths=[2.0, 4.0, 6.0])]
    est = [frame(depths=[2.0, 6.0, 4.0])]
    assert evaluate_scenes(est, gt).d_ord == pytest.approx(200.0 / 3.0)


def test_depth_order_gt_tie_rule():
    gt = [frame(depths=[5.0, 5.0])]
    spread = [frame(depths=[5.0, 5.1])]
    tied = [frame(depths=[5.0, 5.0 + 1e-9])]
    assert evaluate_scenes(spread, gt).d_ord == 0.0
    assert evaluate_scenes(tied, gt).d_ord == 100.0


def test_depth_order_pools_pairs_across_frames():
    gt = [frame(depths=[3.0, 5.0]), frame(depths=[2.0, 4.0, 6.0])]
    est = [frame(depths=[3.0, 5.0]), frame(depths=[2.0, 6.0, 4.0])]
    # 1/1 + 2/3 pooled = 3 of 4
    assert evaluate_scenes(est, gt).d_ord == 75.0


def test_depth_order_person_count_mismatch():
    with pytest.raises(SchemaError):
        evaluate_scenes([frame(depths=[3.0, 5.0])], [frame(depths=[3.0])])
    with pytest.raises(SchemaError):
        evaluate_scenes([frame(depths=[3.0])], [])


# --- normalized distance ---


def test_distance_error_identity():
    frames = [frame(positions=[(0, 0), (1, 0), (1, 1)])]
    assert evaluate_scenes(frames, frames).d_norm == 0.0


def test_distance_error_scale_invariance():
    gt = [frame(positions=[(0, 0), (1.3, 0), (0.4, 2.0)], depths=[3.0, 5.0, 6.5])]
    est = [frame(positions=[(0, 0), (2.6, 0), (0.8, 4.0)], depths=[6.0, 10.0, 13.0])]
    assert evaluate_scenes(est, gt).d_norm < 1e-12


def test_pair_sum_discrepancy_hand_value():
    assert pair_sum_discrepancy(
        np.array([1.0, 2.0, 6.0]), np.array([1.0, 2.0, 3.0])
    ) == pytest.approx(0.5)


def test_pair_sum_discrepancy_zero_distances():
    assert pair_sum_discrepancy(np.zeros(3), np.array([1.0, 2.0, 3.0])) == pytest.approx(2.0)
    with pytest.raises(SchemaError):
        pair_sum_discrepancy(np.zeros(2), np.zeros(3))


def test_distance_error_known_triangle():
    # gt collinear: pair sums 6, max 3 -> 2; est right triangle:
    # (2 + sqrt(2))/sqrt(2) = sqrt(2) + 1
    gt = [frame(positions=[(0, 0), (1, 0), (3, 0)])]
    est = [frame(positions=[(0, 0), (1, 0), (1, 1)])]
    expected = np.sqrt(2.0) + 1.0 - 2.0
    assert evaluate_scenes(est, gt).d_norm == pytest.approx(expected, rel=1e-12)


def test_distance_error_skips_single_person_frames():
    gt = [frame(depths=[5.0]), frame(positions=[(0, 0), (1, 0), (3, 0)])]
    est = [frame(depths=[9.0]), frame(positions=[(0, 0), (1, 0), (1, 1)])]
    expected = np.sqrt(2.0) + 1.0 - 2.0
    assert evaluate_scenes(est, gt).d_norm == pytest.approx(expected, rel=1e-12)


def test_distance_error_no_evaluable_frames_is_nan():
    gt = [frame(depths=[5.0])]
    est = [frame(depths=[9.0])]
    report = evaluate_scenes(est, gt)
    assert np.isnan(report.d_norm)
    assert np.isnan(report.d_ord) and np.isnan(report.h_ord)
    assert report.frames_evaluated == report.pairs_evaluated == 0


# --- height ordering ---


def test_height_order_perfect():
    frames = [frame(heights=[1.5, 1.7, 1.9])]
    assert evaluate_scenes(frames, frames).h_ord == 100.0


def test_height_order_gt_tie_spread_estimate():
    gt = [frame(heights=[1.7, 1.7])]
    est = [frame(heights=[1.6, 1.8])]
    assert evaluate_scenes(est, gt).h_ord == 0.0


def test_height_order_two_of_three():
    gt = [frame(heights=[1.6, 1.7, 1.8])]
    est = [frame(heights=[1.6, 1.8, 1.7])]
    assert evaluate_scenes(est, gt).h_ord == pytest.approx(200.0 / 3.0)


# --- aggregation and invariances ---


def test_evaluate_scenes_report():
    gt = [frame(depths=[2.0, 4.0, 6.0]), frame(depths=[3.0, 5.0])]
    est = [frame(depths=[2.0, 6.0, 4.0]), frame(depths=[3.0, 5.0])]
    report = evaluate_scenes(est, gt)
    assert isinstance(report, MetricsReport)
    assert report.frames_evaluated == 2
    assert report.pairs_evaluated == 4
    assert report.d_ord == 75.0
    assert report.h_ord == 100.0
    assert len(report.per_frame) == 2
    assert [(fm.depth_correct, fm.height_correct, fm.pairs) for fm in report.per_frame] == [
        (2, 3, 3),
        (1, 1, 1),
    ]
    assert 0.0 <= report.d_ord <= 100.0


def test_metrics_rigid_translation_invariant():
    gt = [frame(positions=[(0, 0), (1, 0), (3, 0)], depths=[3.0, 4.0, 5.0],
                heights=[1.5, 1.7, 1.9])]
    est = [frame(positions=[(0, 0), (1, 0), (1, 1)], depths=[3.0, 5.0, 4.0],
                 heights=[1.5, 1.9, 1.7])]
    before = evaluate_scenes(est, gt)
    shift = np.array([2.0, -1.0, 3.0])
    for scenes in (gt, est):
        for person in scenes[0].persons:
            person.translation = person.translation + shift
    after = evaluate_scenes(est, gt)
    assert after.d_ord == before.d_ord
    assert after.h_ord == before.h_ord
    assert after.d_norm == pytest.approx(before.d_norm, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(perm_seed=st.integers(0, 10_000))
def test_metrics_relabeling_invariant(perm_seed):
    gt = frame(positions=[(0, 0), (1, 0), (1, 1)], depths=[3.0, 4.0, 5.0],
               heights=[1.5, 1.7, 1.9])
    est = frame(positions=[(0, 0), (2, 0), (1, 2)], depths=[3.0, 5.0, 4.0],
                heights=[1.5, 1.9, 1.7])
    before = evaluate_scenes([est], [gt])
    perm = np.random.default_rng(perm_seed).permutation(3)
    gt2 = Scene([gt.persons[i] for i in perm], CAM)
    est2 = Scene([est.persons[i] for i in perm], CAM)
    after = evaluate_scenes([est2], [gt2])
    assert after.d_ord == before.d_ord
    assert after.h_ord == before.h_ord
    assert after.d_norm == pytest.approx(before.d_norm, rel=1e-12)


def loop_order_correct(est_vals, gt_vals):
    """The pair-by-pair loop _order_correct replaced, kept as its reference."""
    correct = 0
    for i, j in combinations(range(len(gt_vals)), 2):
        gd = gt_vals[i] - gt_vals[j]
        ed = est_vals[i] - est_vals[j]
        if abs(gd) <= TIE_EPSILON:
            correct += abs(ed) < TIE_EPSILON
        else:
            correct += np.sign(ed) == np.sign(gd)
    return int(correct)


# values that tie, sit on either side of TIE_EPSILON, or are not numbers
_ORDER_VALUES = st.one_of(
    st.sampled_from([0.0, TIE_EPSILON, -TIE_EPSILON, TIE_EPSILON / 2, 1.0, 2.0, np.nan, np.inf]),
    st.floats(-10.0, 10.0),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 20).flatmap(
    lambda n: st.tuples(*(st.lists(_ORDER_VALUES, min_size=n, max_size=n),) * 2)))
def test_order_correct_matches_the_pair_loop(pair):
    est, gt = (np.array(v, dtype=float) for v in pair)
    with np.errstate(invalid="ignore"):  # inf - inf
        assert _order_correct(est, gt) == loop_order_correct(est, gt)
