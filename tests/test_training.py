"""Codebooks, beam searches, and the distributed training tables."""

import collections
import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from irsim import training
from irsim.beams import mrt_beam, closed_form_path_gain, multi_hop_phases, optimize_path_phases
from irsim.channels import _los_terms, _rician_rows, cascaded_path_channel, synthesize_channels
from irsim.cli import main
from irsim.experiments import FIG13_KAPPAS_DB, FIG13_PATH
from irsim.geometry import build_scene, route_links
from irsim.scenarios import indoor_hall_config, with_users
from irsim.training import (Codebook, GainEvaluator, NotTrainable, assemble_global_btt,
                            beams_from_choices, best_beams_for_path, build_bs_btt,
                            build_irs_btt, dft_codebook, exhaustive_search, irs_neighbor_sets,
                            planar_passive_codebook, sequential_search)

from conftest import chain_config, zigzag_config


# ---------------------------------------------------------------------------
# codebooks
# ---------------------------------------------------------------------------

def test_square_dft_codebook_orthogonal():
    cb = dft_codebook(8, 8)
    gram = cb.beams @ cb.beams.conj().T
    assert np.allclose(gram, 8 * np.eye(8), atol=1e-10)


def test_beam_zero_is_uniform():
    cb = dft_codebook(16, 6)
    assert np.allclose(cb.beams[0], 1.0)
    active = dft_codebook(16, 6, kind="active")
    assert np.allclose(np.linalg.norm(active.beams, axis=1), 1.0)


def test_oversampled_codebook_shape_and_modulus():
    cb = dft_codebook(32, 24)
    assert cb.beams.shape == (32, 24)
    assert np.allclose(np.abs(cb.beams), 1.0)
    with pytest.raises(ValueError):
        dft_codebook(16, 24)


def test_planar_codebook_kron_structure():
    cb = planar_passive_codebook(4, 3)
    assert cb.size == 16 and cb.row(1 * 4 + 2).shape == (9,)
    line = dft_codebook(4, 3).beams
    assert np.allclose(cb.row(1 * 4 + 2), np.kron(line[1], line[2]))


def test_dft_codebook_rejects_zero_elements():
    with pytest.raises(ValueError, match="dim must be positive and finite, got 0"):
        dft_codebook(0, 0)


def test_planar_codebook_rejects_zero_elements_per_dimension():
    with pytest.raises(ValueError, match="m0 must be positive and finite, got 0"):
        planar_passive_codebook(8, 0)


# ---------------------------------------------------------------------------
# exhaustive and sequential search
# ---------------------------------------------------------------------------

def _tiny_setup(seed=70, kappa_db="inf", n_hops=2):
    scene = build_scene(zigzag_config(n_hops=n_hops, m0=2, n_bs=2, kappa_db=kappa_db))
    channels = synthesize_channels(scene, seed)
    bs_cb = dft_codebook(2, 2, kind="active")
    irs_cbs = {j: planar_passive_codebook(2, 2) for j in range(1, n_hops + 1)}
    return scene, channels, bs_cb, irs_cbs


def test_exhaustive_combination_count():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(n_hops=1)
    result = exhaustive_search(channels, [1], bs_cb, irs_cbs, path=(1,))
    assert result.combinations == 2 * 4
    assert result.evaluations == 2 * 4          # one user, one eval per combo


def _two_user_setup(seed, n_hops, kappa_db=8):
    """The tiny zigzag with a second user that also sees every surface."""
    scene = build_scene(with_users(zigzag_config(n_hops=n_hops, m0=2, n_bs=2, kappa_db=kappa_db),
                                   [[24, -2, 1.5], [22, 4, 1.5]]))
    irs_cbs = {j: planar_passive_codebook(2, 2) for j in range(1, n_hops + 1)}
    return scene, synthesize_channels(scene, seed), dft_codebook(2, 2, kind="active"), irs_cbs


def test_exhaustive_counts_one_evaluation_per_combination_for_two_users():
    _, channels, bs_cb, irs_cbs = _two_user_setup(seed=72, n_hops=2)
    result = exhaustive_search(channels, [1, 2], bs_cb, irs_cbs, path=(1, 2))
    assert result.combinations == 2 * 4 * 4
    assert result.evaluations == result.combinations


def _brute_force_search(channels, users, bs_cb, irs_cbs, path):
    """(objective, BS index, surface indices) of the best combination, each
    scored alone by an evaluator sweep over a one-beam BS codebook; ties go
    to the lowest BS index, then the lowest surface indices."""
    evaluator = GainEvaluator(channels, users, path, irs_cbs)
    ids = evaluator.irs_ids
    best = None
    for b in range(bs_cb.size):
        one_beam = Codebook(beams=bs_cb.beams[b:b + 1])
        for choice in itertools.product(*(range(irs_cbs[j].size) for j in ids)):
            irs_idx = dict(zip(ids, choice))
            _, phases = beams_from_choices(bs_cb, irs_cbs, {0: b, **irs_idx})
            obj = float(evaluator.sweep(one_beam, phases)[0])
            if best is None or obj > best[0]:
                best = (obj, b, irs_idx)
    return best


@pytest.mark.parametrize("path", [(1,), (1, 2)], ids=["path-1", "path-2"])
def test_exhaustive_returns_brute_force_argmax(path):
    for seed, users in itertools.product(range(3), ([1], [1, 2])):
        _, channels, bs_cb, irs_cbs = _two_user_setup(seed=80 + seed, n_hops=len(path))
        obj, bs_idx, irs_idx = _brute_force_search(channels, users, bs_cb, irs_cbs, path)
        result = exhaustive_search(channels, users, bs_cb, irs_cbs, path=path)
        assert (result.bs_index, result.irs_indices) == (bs_idx, irs_idx)
        assert result.objective == pytest.approx(obj, rel=1e-12)
        w, phases = beams_from_choices(bs_cb, irs_cbs, {0: bs_idx, **irs_idx})
        assert np.array_equal(result.w, w)
        assert all(np.array_equal(result.phases[j], phases[j]) for j in phases)


@pytest.mark.parametrize("search", [exhaustive_search, sequential_search])
def test_searches_reject_a_codebook_of_the_wrong_dimension_before_composing(search, monkeypatch):
    _, channels, bs_cb, irs_cbs = _tiny_setup(n_hops=2)

    def forbidden(*args, **kwargs):
        raise AssertionError("a channel was composed")

    monkeypatch.setattr(training, "_compose", forbidden)
    with pytest.raises(ValueError, match="bs_codebook beams must have node 0's 2 entries, got 4"):
        search(channels, [1], dft_codebook(4, 4, kind="active"), irs_cbs, path=(1, 2))
    with pytest.raises(ValueError, match=r"irs_codebooks\[2\] beams must have node 2's 4 entries, got 9"):
        search(channels, [1], bs_cb, {**irs_cbs, 2: planar_passive_codebook(3, 3)}, path=(1, 2))


def test_exhaustive_refuses_oversized_search():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(n_hops=2)
    with pytest.raises(ValueError, match="combinations"):
        exhaustive_search(channels, [1], bs_cb, irs_cbs, path=(1, 2), max_combinations=3)


@pytest.mark.parametrize("cap", [math.nan, "x", 2.5, 0], ids=["nan", "str", "float", "zero"])
def test_exhaustive_rejects_a_cap_that_is_not_a_positive_integer(cap, monkeypatch):
    _, channels, bs_cb, irs_cbs = _tiny_setup(n_hops=2)
    monkeypatch.setattr(GainEvaluator, "sweep", lambda *args: pytest.fail("the search started"))
    with pytest.raises(ValueError, match="max_combinations must be"):
        exhaustive_search(channels, [1], bs_cb, irs_cbs, path=(1, 2), max_combinations=cap)


def test_exhaustive_refuses_a_combination_count_beyond_int64(monkeypatch):
    # 32 * 256**8 = 2**69 combinations; a 64-bit product wraps 256**8 to 0
    def no_sweep(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(GainEvaluator, "sweep", no_sweep)
    scene = build_scene(indoor_hall_config(m0=4))
    channels = synthesize_channels(scene, 0)
    irs_cbs = {j: planar_passive_codebook(16, 4) for j in range(1, scene.n_irs + 1)}
    with pytest.raises(ValueError, match=f"would need {2 ** 69} combinations"):
        exhaustive_search(channels, [1], dft_codebook(32, 32, kind="active"), irs_cbs,
                          path=tuple(irs_cbs))


@pytest.mark.parametrize("max_sweeps", [0, -1])
def test_sequential_rejects_a_sweep_cap_below_one_before_any_composition(max_sweeps,
                                                                         monkeypatch):
    def no_composition(*args, **kwargs):
        raise AssertionError("a channel was composed")

    monkeypatch.setattr(training, "_compose", no_composition)
    _, channels, bs_cb, irs_cbs = _tiny_setup(kappa_db=8)
    with pytest.raises(ValueError, match=f"max_sweeps must be >= 1, got {max_sweeps}"):
        sequential_search(channels, [1], bs_cb, irs_cbs, path=(1, 2), max_sweeps=max_sweeps)


@pytest.mark.parametrize("call, name", [
    (lambda setup: dft_codebook(2.5, 2), "n_points"),
    (lambda setup: dft_codebook(4, 2.5), "dim"),
    (lambda setup: planar_passive_codebook(2, 1.5), "m0"),
    (lambda setup: sequential_search(setup[1], [1], setup[2], setup[3], path=(1, 2),
                                     max_sweeps=1.5), "max_sweeps"),
], ids=["n_points", "dim", "m0", "max_sweeps"])
def test_counts_must_be_integers_before_any_composition(call, name, monkeypatch):
    def no_composition(*args, **kwargs):
        raise AssertionError("a channel was composed")

    setup = _tiny_setup(kappa_db=8)
    monkeypatch.setattr(training, "_compose", no_composition)
    with pytest.raises(ValueError, match=f"{name} must be an integer, got [12].5"):
        call(setup)


@pytest.mark.parametrize("search", [exhaustive_search, sequential_search])
def test_searches_reject_an_empty_user_list_before_any_composition(search, monkeypatch):
    def no_composition(*args, **kwargs):
        raise AssertionError("a channel was composed")

    _, channels, bs_cb, irs_cbs = _tiny_setup()
    monkeypatch.setattr(training, "_compose", no_composition)
    with pytest.raises(ValueError, match="users"):
        search(channels, [], bs_cb, irs_cbs, path=(1, 2))


@pytest.mark.parametrize("search", [exhaustive_search, sequential_search])
@pytest.mark.parametrize("users", [[0], [2], [99], [1, 1]])
def test_searches_reject_an_unknown_or_repeated_user_before_any_composition(
        search, users, monkeypatch):
    def no_composition(*args, **kwargs):
        raise AssertionError("a channel was composed")

    _, channels, bs_cb, irs_cbs = _tiny_setup(kappa_db=8)
    monkeypatch.setattr(training, "_compose", no_composition)
    message = rf"users must name distinct users in 1\.\.1, got {re.escape(str(users))}"
    with pytest.raises(ValueError, match=message):
        search(channels, users, bs_cb, irs_cbs, path=(1, 2))


@pytest.mark.parametrize("search", [exhaustive_search, sequential_search])
@pytest.mark.parametrize("path, codebook_ids, name", [
    ((), (1, 2), "path"),                 # the direct link is never scored
    ((1, 1), (1, 2), "path"),
    ((99,), (1, 2), "path"),
    ((1, 2), (1,), "irs_codebooks"),      # a path surface with no codebook
    ((1,), (99,), "irs_codebooks"),
    ((1,), (), "irs_codebooks"),
])
def test_searches_reject_a_bad_path_or_codebook_map_before_any_composition(
        search, path, codebook_ids, name, monkeypatch):
    def no_composition(*args, **kwargs):
        raise AssertionError("a channel was composed")

    _, channels, bs_cb, irs_cbs = _tiny_setup(kappa_db=8)
    monkeypatch.setattr(training, "_compose", no_composition)
    cbs = {j: irs_cbs[1] for j in codebook_ids}
    with pytest.raises(ValueError, match=name):
        search(channels, [1], bs_cb, cbs, path=path)


@pytest.mark.parametrize("users", [[1], [1, 2]])
def test_sequential_composes_once_per_user_per_sweep(users, monkeypatch):
    # one composition gives the BS sweep its channel and the surfaces their sweep
    calls = collections.Counter()
    real = training._compose

    def counting(*args, **kwargs):
        calls["compose"] += 1
        return real(*args, **kwargs)

    scene = build_scene(with_users(zigzag_config(n_hops=3, m0=2, n_bs=2, kappa_db=8),
                                   [[24, -2, 1.5], [26, -1, 1.5]]))   # both see surface 3
    channels = synthesize_channels(scene, 70)
    bs_cb = dft_codebook(2, 2, kind="active")
    irs_cbs = {j: planar_passive_codebook(2, 2) for j in (1, 2, 3)}
    monkeypatch.setattr(training, "_compose", counting)
    result = sequential_search(channels, users, bs_cb, irs_cbs, path=(1, 2, 3))
    assert result.sweeps == 2 and calls["compose"] == len(users) * result.sweeps


@pytest.mark.parametrize("config, seed, m0, digests", [
    (with_users(zigzag_config(n_hops=3, m0=2, n_bs=2, kappa_db=8),
                [[24, -2, 1.5], [26, -1, 1.5]]), 70, 2,
     ("9845099103344651d5621e86e8bcb183db7f617b0a7ff6041333390cccc2c013",
      "296805b0348c92313f227e985964035aca563a274feea3c2d29b4da252c6c556")),
    (zigzag_config(n_hops=3, m0=3, n_bs=4, kappa_db=0), 5, 3,
     ("bd664892a802035bbea60a210202ee351b4a412e3bac6ce3821dcb83bfdacfec",
      "1e326e4a53651be78a27f95862d2a435dfffccc8c1374dcfcae2f20d178cd1ce")),
], ids=["two_users_8db", "rayleigh"])
def test_search_and_path_phases_on_faded_scenes_keep_their_bits(config, seed, m0, digests):
    """The bits of a sequential search and of `optimize_path_phases` along (1, 2, 3),
    as computed when each search sweep and each phase round composed every user twice."""
    scene = build_scene(config)
    channels = synthesize_channels(scene, seed)
    result = sequential_search(channels, list(range(1, scene.n_users + 1)),
                               dft_codebook(scene.n_bs, scene.n_bs, kind="active"),
                               {j: planar_passive_codebook(m0 + 1, m0) for j in (1, 2, 3)},
                               path=(1, 2, 3))
    phases, gain = optimize_path_phases(channels, [1, 2, 3], user=1)
    got = [b"".join(p[j].tobytes() for j in sorted(p)) + rest for p, rest in [
        (result.phases, result.w.tobytes() + np.float64(result.objective).tobytes()),
        (phases, np.float64(gain).tobytes())]]
    assert tuple(hashlib.sha256(b).hexdigest() for b in got) == digests


def test_exhaustive_finds_planted_optimum():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(n_hops=2)
    path = (1, 2)
    aligned = multi_hop_phases(channels, list(path), user=1)
    w_star = mrt_beam(channels.get(0, 1).los_tx)
    bs_cb = Codebook(beams=np.stack([bs_cb.beams[0], w_star]))
    for j in path:
        irs_cbs[j] = Codebook(beams=np.stack([irs_cbs[j].row(0), aligned[j]]))
    result = exhaustive_search(channels, [1], bs_cb, irs_cbs, path=path)
    seq = [0, *path, scene.n_irs + 1]
    want = closed_form_path_gain(2, 4, 2, scene.constants.beta,
                                 [scene.distance(a, b) for a, b in zip(seq[:-1], seq[1:])])
    c = scene.constants
    assert result.objective == pytest.approx(c.tx_power * want / c.noise_power, rel=1e-9)
    assert result.bs_index == 1 and result.irs_indices == {1: 1, 2: 1}


def test_sequential_cost_counts_and_dominance():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(kappa_db=8)
    seq = sequential_search(channels, [1], bs_cb, irs_cbs, path=(1, 2))
    per_sweep = bs_cb.size + sum(cb.size for cb in irs_cbs.values())
    assert seq.evaluations == seq.sweeps * per_sweep
    exh = exhaustive_search(channels, [1], bs_cb, irs_cbs, path=(1, 2))
    assert exh.objective >= seq.objective - 1e-15


def test_sequential_objective_nondecreasing_across_sweeps():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(kappa_db=3, seed=71)
    prev = 0.0
    for cap in range(1, 6):
        res = sequential_search(channels, [1], bs_cb, irs_cbs, path=(1, 2), max_sweeps=cap)
        assert res.objective >= prev - 1e-15
        prev = res.objective


def test_sequential_reaches_planted_optimum():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(n_hops=2)
    path = (1, 2)
    aligned = multi_hop_phases(channels, list(path), user=1)
    w_star = mrt_beam(channels.get(0, 1).los_tx)
    bs_cb = Codebook(beams=np.stack([bs_cb.beams[0], w_star]))
    for j in path:
        irs_cbs[j] = Codebook(beams=np.stack([irs_cbs[j].row(0), aligned[j]]))
    seq = sequential_search(channels, [1], bs_cb, irs_cbs, path=path)
    exh = exhaustive_search(channels, [1], bs_cb, irs_cbs, path=path)
    assert seq.objective == pytest.approx(exh.objective, rel=1e-9)


# ---------------------------------------------------------------------------
# training tables
# ---------------------------------------------------------------------------

def test_bs_btt_row_count_and_threshold():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    cb = dft_codebook(4, 2, kind="active")
    table = build_bs_btt(scene, cb, threshold=0.0, seed=1)
    neighbors = {nxt for (_, _, nxt) in table.rows}
    assert len(table.rows) == cb.size * len(neighbors)
    high = build_bs_btt(scene, cb, threshold=1e6, seed=1)
    assert not high.rows


def test_bs_btt_matched_beam_rss_closed_form():
    scene = build_scene(chain_config(m0=2, n_bs=4))
    w_star = mrt_beam(
        synthesize_channels(scene, 0, links=[(0, 1)]).get(0, 1).los_tx)
    cb = Codebook(beams=w_star[None, :])
    table = build_bs_btt(scene, cb, threshold=0.0, seed=2, averages=1)
    want = scene.n_bs * scene.constants.beta / scene.distance(0, 1) ** 2
    assert table.rows[(None, 0, 1)] == pytest.approx(want, rel=1e-9)


def _forbid_draws(monkeypatch):
    """Make every link draw of the table builders fail."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a link was drawn")

    monkeypatch.setattr(training, "_rician_rows", no_draw)


@pytest.mark.parametrize("averages", [0, -3])
@pytest.mark.parametrize("build", [
    lambda scene, averages: build_bs_btt(scene, dft_codebook(4, 2, kind="active"),
                                         averages=averages),
    lambda scene, averages: build_irs_btt(scene, 1, planar_passive_codebook(2, 2),
                                          averages=averages),
], ids=["bs", "irs"])
def test_btt_rejects_averages_below_one_before_any_draw(build, averages, monkeypatch):
    _forbid_draws(monkeypatch)
    scene = build_scene(chain_config(m0=2, n_bs=4))
    with pytest.raises(ValueError, match=f"averages must be >= 1, got {averages}"):
        build(scene, averages)


@pytest.mark.parametrize("averages", [2.5, "3"])
@pytest.mark.parametrize("build", [
    lambda scene, averages: build_bs_btt(scene, dft_codebook(4, 2, kind="active"),
                                         averages=averages),
    lambda scene, averages: build_irs_btt(scene, 1, planar_passive_codebook(2, 2),
                                          averages=averages),
], ids=["bs", "irs"])
def test_btt_rejects_non_integer_averages_before_any_draw(build, averages, monkeypatch):
    _forbid_draws(monkeypatch)
    scene = build_scene(chain_config(m0=2, n_bs=4))
    with pytest.raises(ValueError, match=f"averages must be an integer, got {averages!r}"):
        build(scene, averages)


@pytest.mark.parametrize("build, want", [
    (lambda scene: build_bs_btt(scene, dft_codebook(8, 4, kind="active")),
     "codebook beams must have node 0's 32 entries, got 4"),
    (lambda scene: build_irs_btt(scene, 1, planar_passive_codebook(5, 5)),
     "codebook beams must have node 1's 16 entries, got 25"),
], ids=["bs", "irs"])
def test_btt_rejects_a_codebook_of_the_wrong_dimension_before_any_draw(build, want, monkeypatch):
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match=want):
        build(build_scene(chain_config(m0=4, n_bs=32, kappa_db=10)))


def test_irs_btt_rows_and_reference():
    scene = build_scene(zigzag_config(n_hops=3, m0=2, n_bs=2))
    cb = planar_passive_codebook(2, 2)
    table = build_irs_btt(scene, 2, cb, threshold=0.0, seed=3)
    prev, nxt = irs_neighbor_sets(scene, 2)
    assert len(table.rows) == len(prev) * cb.size * len(nxt)
    for p in prev:
        assert table.reference_rss[p] > 0
    assert all(rss >= 0 for rss in table.rows.values())


def test_irs_btt_matched_beam_is_row_maximum():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    channels = synthesize_channels(scene, 4)
    aligned = multi_hop_phases(channels, [1, 2], user=1)
    base = planar_passive_codebook(2, 2)
    cb = Codebook(beams=np.stack([*(base.row(d) for d in range(base.size)), aligned[1]]))
    table = build_irs_btt(scene, 1, cb, threshold=0.0, seed=4, averages=1,
                          prev_nodes=[0], next_nodes=[2])
    rows = {beam: rss for (p, beam, n), rss in table.rows.items()}
    assert max(rows, key=rows.get) == cb.size - 1


def test_online_rows_flagged_by_user_target():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    cb = planar_passive_codebook(2, 2)
    table = build_irs_btt(scene, 2, cb, threshold=0.0, seed=5)
    assert any(scene.is_user(nxt) for _, _, nxt in table.rows)   # online rows exist


@pytest.mark.parametrize("threshold", [math.nan, "a", None, [0.0]],
                         ids=["nan", "str", "none", "list"])
def test_both_table_builders_reject_a_threshold_that_is_not_a_real_number(threshold):
    scene = build_scene(indoor_hall_config(m0=4))
    builders = (lambda thr: build_bs_btt(scene, dft_codebook(32, 32, kind="active"), thr),
                lambda thr: build_irs_btt(scene, 3, planar_passive_codebook(4, 4), thr))
    for build in builders:
        if threshold is None:          # the noise power
            assert build(threshold).threshold == scene.constants.noise_power
            continue
        with pytest.raises(ValueError, match="threshold must be a real number"):
            build(threshold)


@pytest.mark.parametrize("threshold", [-math.inf, -1.0, math.inf])
def test_a_negative_or_infinite_threshold_keeps_every_row_or_none(threshold):
    scene = build_scene(chain_config(m0=3, n_bs=4, kappa_db=10))
    table = build_bs_btt(scene, dft_codebook(4, 4, kind="active"), threshold, averages=1)
    assert len(table.rows) == (0 if threshold > 0 else 4 * len(table.rss))


def test_raising_threshold_never_adds_rows():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2, kappa_db=10))
    cb = planar_passive_codebook(2, 2)
    low = build_irs_btt(scene, 1, cb, threshold=0.0, seed=6)
    mid_thr = float(np.median(list(low.rows.values())))
    high = build_irs_btt(scene, 1, cb, threshold=mid_thr, seed=6)
    assert set(high.rows) <= set(low.rows)
    assert all(rss >= mid_thr for rss in high.rows.values())


def test_global_btt_assembly_and_counts():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    bs_cb = dft_codebook(2, 2, kind="active")
    cb = planar_passive_codebook(2, 2)
    bs_table = build_bs_btt(scene, bs_cb, threshold=0.0, seed=7)
    tables = [build_irs_btt(scene, j, cb, threshold=0.0, seed=7) for j in (1, 2)]
    gbtt = assemble_global_btt(bs_table, tables)
    assert gbtt[0] is bs_table
    assert gbtt == {0: bs_table, 1: tables[0], 2: tables[1]}
    with pytest.raises(ValueError, match="duplicate"):
        assemble_global_btt(bs_table, tables + [tables[0]])
    with pytest.raises(ValueError, match="duplicate table for node 0"):
        assemble_global_btt(bs_table, [*tables, dataclasses.replace(tables[0], owner=0)])


def test_empty_irs_tables_leave_bs_only():
    scene = build_scene(zigzag_config(n_hops=1, m0=2, n_bs=2))
    bs_cb = dft_codebook(2, 2, kind="active")
    bs_table = build_bs_btt(scene, bs_cb, threshold=0.0, seed=8)
    gbtt = assemble_global_btt(bs_table, [])
    assert gbtt[0] is bs_table and list(gbtt) == [0]



# ---------------------------------------------------------------------------
# composed gain estimates
# ---------------------------------------------------------------------------

def _estimate(gbtt, path, user_node, choices):
    """Composed gain estimate of a route under given beams: the BS RSS toward
    the first surface times each hop's RSS over its unreflected incoming
    reference (1.0 at the BS)."""
    links = [(None, 0), *route_links(path, user_node)]
    estimate = 1.0
    for (prev, node), (_, nxt) in zip(links, links[1:]):
        table = gbtt[node]
        estimate *= table.rows[(prev, choices[node], nxt)] / table.reference_rss[prev]
    return estimate


def _pure_los_tables(scene, bs_cb, irs_cbs, path):
    bs_table = build_bs_btt(scene, bs_cb, threshold=0.0, seed=10, averages=1)
    tables = [build_irs_btt(scene, j, irs_cbs[j], threshold=0.0, seed=10, averages=1)
              for j in path]
    return assemble_global_btt(bs_table, tables)


def test_single_hop_estimate_equals_bs_rss():
    scene = build_scene(chain_config(m0=2, n_bs=2))
    bs_cb = dft_codebook(2, 2, kind="active")
    irs_cbs = {1: planar_passive_codebook(2, 2)}
    gbtt = _pure_los_tables(scene, bs_cb, irs_cbs, (1,))
    est = _estimate(gbtt, (1,), scene.n_irs + 1, {0: 0, 1: 0})
    # single hop: the composition is BS RSS times one normalized hop
    bs_rss = gbtt[0].rows[(None, 0, 1)]
    hop = gbtt[1].rows[(0, 0, 2)] / gbtt[1].reference_rss[0]
    assert est == pytest.approx(bs_rss * hop, rel=1e-12)


def test_estimate_exact_under_pure_los_any_beams():
    scene = build_scene(zigzag_config(n_hops=3, m0=2, n_bs=2))
    channels = synthesize_channels(scene, 11)
    path = (1, 2, 3)
    bs_cb = dft_codebook(2, 2, kind="active")
    irs_cbs = {j: planar_passive_codebook(2, 2) for j in path}
    gbtt = _pure_los_tables(scene, bs_cb, irs_cbs, path)
    rng = np.random.default_rng(12)
    for _ in range(10):
        choices = {0: int(rng.integers(bs_cb.size))}
        for j in path:
            choices[j] = int(rng.integers(irs_cbs[j].size))
        est = _estimate(gbtt, path, scene.n_irs + 1, choices)
        w, phases = beams_from_choices(bs_cb, irs_cbs, choices)
        h = cascaded_path_channel(channels, list(path), phases, user=1)
        true = float(abs(h @ w) ** 2)
        assert est == pytest.approx(true, rel=1e-9)


def test_estimate_matched_beams_equals_closed_form():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    channels = synthesize_channels(scene, 13)
    path = (1, 2)
    aligned = multi_hop_phases(channels, list(path), user=1)
    w_star = mrt_beam(channels.get(0, 1).los_tx)
    bs_cb = Codebook(beams=w_star[None, :])
    irs_cbs = {j: Codebook(beams=aligned[j][None, :]) for j in path}
    gbtt = _pure_los_tables(scene, bs_cb, irs_cbs, path)
    est = _estimate(gbtt, path, scene.n_irs + 1, {0: 0, 1: 0, 2: 0})
    seq = [0, *path, scene.n_irs + 1]
    want = closed_form_path_gain(2, 4, 2, scene.constants.beta,
                                 [scene.distance(a, b) for a, b in zip(seq[:-1], seq[1:])])
    assert est == pytest.approx(want, rel=1e-9)


def test_estimate_inexact_under_fading():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2, kappa_db=5))
    channels = synthesize_channels(scene, 14)
    path = (1, 2)
    bs_cb = dft_codebook(2, 2, kind="active")
    irs_cbs = {j: planar_passive_codebook(2, 2) for j in path}
    bs_table = build_bs_btt(scene, bs_cb, threshold=0.0, seed=15, averages=10)
    tables = [build_irs_btt(scene, j, irs_cbs[j], threshold=0.0, seed=15, averages=10)
              for j in path]
    gbtt = assemble_global_btt(bs_table, tables)
    est = _estimate(gbtt, path, scene.n_irs + 1, {0: 0, 1: 0, 2: 0})
    w, phases = beams_from_choices(bs_cb, irs_cbs, {0: 0, 1: 0, 2: 0})
    h = cascaded_path_channel(channels, list(path), phases, user=1)
    true = float(abs(h @ w) ** 2)
    # the gap exists but stays within a couple of orders of magnitude
    assert abs(est / true - 1.0) > 1e-6
    assert 1e-3 < est / true < 1e3


def test_missing_row_raises_not_trainable():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    bs_cb = dft_codebook(2, 2, kind="active")
    # a BS table thresholded empty never trained its hop toward surface 1
    empty = assemble_global_btt(build_bs_btt(scene, bs_cb, threshold=1e9, seed=0), [])
    with pytest.raises(NotTrainable, match=r"node 0 never trained hop \(None -> 1\)"):
        best_beams_for_path(empty, (1,), scene.n_irs + 1)
    # surface 2 has no table at all
    gbtt = _pure_los_tables(scene, bs_cb, {1: planar_passive_codebook(2, 2)}, (1,))
    assert best_beams_for_path(gbtt, (1,), scene.n_irs + 1).keys() == {0, 1}
    with pytest.raises(NotTrainable, match="no table for node 2"):
        best_beams_for_path(gbtt, (1, 2), scene.n_irs + 1)


def test_best_beams_take_the_lowest_beam_among_ties():
    scene = build_scene(chain_config(m0=2, n_bs=4))
    w_star = mrt_beam(synthesize_channels(scene, 0, links=[(0, 1)]).get(0, 1).los_tx)
    cb = Codebook(beams=np.stack([dft_codebook(4, 4, kind="active").beams[1], w_star, w_star]))
    table = build_bs_btt(scene, cb, threshold=0.0, seed=2, averages=1)
    assert table.rows[(None, 1, 1)] == table.rows[(None, 2, 1)] > table.rows[(None, 0, 1)]
    irs_table = build_irs_btt(scene, 1, planar_passive_codebook(2, 2), threshold=0.0, seed=2)
    assert best_beams_for_path({0: table, 1: irs_table}, (1,), scene.n_irs + 1)[0] == 1
    with pytest.raises(TypeError):
        table.rows[(None, 0, 1)] = 0.0                 # a read-only view of `rss`


def test_a_sounded_hop_with_every_entry_below_threshold_is_not_trainable():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2, kappa_db=10))
    bs_table = build_bs_btt(scene, dft_codebook(2, 2, kind="active"), threshold=0.0, seed=9)
    irs_table = build_irs_btt(scene, 1, planar_passive_codebook(2, 2), threshold=1e9, seed=9,
                              prev_nodes=[0], next_nodes=[2])
    assert np.all(irs_table.rss[(0, 2)] == -np.inf) and not irs_table.rows
    with pytest.raises(NotTrainable, match=r"node 1 never trained hop \(0 -> 2\)"):
        best_beams_for_path(assemble_global_btt(bs_table, [irs_table]), (1, 2), scene.n_irs + 1)


def _row_scan_choices(gbtt, path, user_node):
    """Per hop, the beam of the highest kept row, the lowest beam among ties,
    found by scanning every row of the table."""
    links = [(None, 0), *route_links(path, user_node)]
    choices = {}
    for (prev, node), (_, nxt) in zip(links, links[1:]):
        rows = [(rss, beam) for (p, beam, n), rss in gbtt[node].rows.items()
                if p == prev and n == nxt]
        choices[node] = max(rows, key=lambda t: (t[0], -t[1]))[1]
    return choices


@pytest.mark.parametrize("seed", [10, 20])
def test_fig13_table_choices_equal_the_row_scan_at_every_kappa(seed):
    m0, path = 24, FIG13_PATH
    bs_cb = dft_codebook(32, 32, kind="active")
    irs_cbs = {j: planar_passive_codebook(32, m0) for j in path}
    for kappa_db in FIG13_KAPPAS_DB:
        scene = build_scene(indoor_hall_config(m0=m0, kappa_db=kappa_db))
        links = route_links(path, scene.n_irs + 1)
        averages = 1 if kappa_db == "inf" else 10
        gbtt = assemble_global_btt(
            build_bs_btt(scene, bs_cb, seed=seed, averages=averages, next_nodes=[path[0]]),
            [build_irs_btt(scene, j, irs_cbs[j], seed=seed, averages=averages,
                           prev_nodes=[links[i][0]], next_nodes=[links[i + 1][1]])
             for i, j in enumerate(path)])
        choices = best_beams_for_path(gbtt, path, scene.n_irs + 1)
        assert choices == _row_scan_choices(gbtt, path, scene.n_irs + 1), kappa_db
        if kappa_db == "inf":                          # pure LoS: no draw, the same choices
            assert choices == {0: 14, 3: 32, 4: 992, 5: 32}


# ---------------------------------------------------------------------------
# distributed selection
# ---------------------------------------------------------------------------

def test_training_hierarchy_on_random_instances():
    rng = np.random.default_rng(18)
    checked = 0
    for trial in range(25):
        kappa_db = float(rng.uniform(10, 30))
        scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2, kappa_db=kappa_db))
        channels = synthesize_channels(scene, 100 + trial)
        path = (1, 2)
        bs_cb = dft_codebook(2, 2, kind="active")
        irs_cbs = {j: planar_passive_codebook(2, 2) for j in path}
        exh = exhaustive_search(channels, [1], bs_cb, irs_cbs, path=path)
        seq = sequential_search(channels, [1], bs_cb, irs_cbs, path=path)

        bs_table = build_bs_btt(scene, bs_cb, seed=200 + trial, averages=10)
        tables = [build_irs_btt(scene, j, irs_cbs[j], seed=200 + trial, averages=10)
                  for j in path]
        gbtt = assemble_global_btt(bs_table, tables)
        choices = best_beams_for_path(gbtt, path, scene.n_irs + 1)
        w, phases = beams_from_choices(bs_cb, irs_cbs, choices)
        h = cascaded_path_channel(channels, list(path), phases, user=1)
        c = scene.constants
        dist_true = float(c.tx_power * abs(h @ w) ** 2 / c.noise_power)
        assert exh.objective >= seq.objective - 1e-12
        assert seq.objective >= dist_true - 1e-12
        checked += 1
    assert checked == 25


@pytest.mark.parametrize("kappa_db", [5.0, 10.0, 15.0, 20.0])
def test_best_beams_maximize_composed_estimate(kappa_db):
    # the estimate is a product of per-hop factors, so the per-hop argmax
    # beats every other beam combination of the route
    import itertools
    path = (1, 2)
    for seed in range(3):
        scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2, kappa_db=kappa_db))
        bs_cb = dft_codebook(2, 2, kind="active")
        irs_cbs = {j: planar_passive_codebook(2, 2) for j in path}
        bs_table = build_bs_btt(scene, bs_cb, threshold=0.0, seed=300 + seed, averages=10)
        tables = [build_irs_btt(scene, j, irs_cbs[j], threshold=0.0, seed=300 + seed,
                                averages=10) for j in path]
        gbtt = assemble_global_btt(bs_table, tables)
        user = scene.n_irs + 1
        best = _estimate(gbtt, path, user, best_beams_for_path(gbtt, path, user))
        for b0, b1, b2 in itertools.product(range(2), range(4), range(4)):
            assert best >= _estimate(gbtt, path, user, {0: b0, 1: b1, 2: b2})


def test_irs_btt_with_both_neighbor_lists_skips_neighbor_search(monkeypatch):
    import irsim.training as training

    def forbidden(scene, j):
        raise AssertionError("neighbor sets computed although both lists were given")

    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    monkeypatch.setattr(training, "irs_neighbor_sets", forbidden)
    table = build_irs_btt(scene, 1, planar_passive_codebook(2, 2), threshold=0.0, seed=1,
                          averages=1, prev_nodes=[0], next_nodes=[2])
    assert set(table.reference_rss) == {0}
    assert {(p, n) for p, _, n in table.rows} == {(0, 2)}


def test_irs_btt_rejects_an_owner_that_is_not_a_surface_before_any_draw(monkeypatch):
    _forbid_draws(monkeypatch)
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    for irs in (0, 1.5, scene.n_irs + 1):
        with pytest.raises(ValueError, match="irs"):
            build_irs_btt(scene, irs, planar_passive_codebook(2, 2))


@pytest.mark.parametrize("kwargs, name", [
    ({"prev_nodes": [5], "next_nodes": [0]}, "prev_nodes"),   # neither 5 -> 1 nor 1 -> 0
    ({"next_nodes": [0]}, "next_nodes"),
    ({"prev_nodes": [1]}, "prev_nodes"),
    ({"next_nodes": [1]}, "next_nodes"),
    ({"next_nodes": [1.0]}, "next_nodes"),
    ({"prev_nodes": [-1]}, "prev_nodes"),
    ({"next_nodes": [2, 11]}, "next_nodes"),                  # the hall has nodes 0..10
], ids=["no_hop_either_way", "into_the_bs", "prev_self", "next_self", "float", "negative",
        "unknown"])
def test_irs_btt_sounds_only_admissible_hops(kwargs, name, monkeypatch):
    _forbid_draws(monkeypatch)
    scene = build_scene(indoor_hall_config(m0=4, kappa_db=10))
    with pytest.raises(ValueError, match=f"{name} entry"):
        build_irs_btt(scene, 1, planar_passive_codebook(4, 4), **kwargs)


@pytest.mark.parametrize("kwargs, name", [
    ({"prev_nodes": [0, 0, 0], "next_nodes": [2]}, "prev_nodes"),
    ({"prev_nodes": [0], "next_nodes": [2, 2, 2]}, "next_nodes"),
], ids=["prev_nodes", "next_nodes"])
def test_irs_btt_sounds_each_hop_once(kwargs, name, monkeypatch):
    _forbid_draws(monkeypatch)
    scene = build_scene(indoor_hall_config(m0=4, kappa_db=10))
    with pytest.raises(ValueError, match=rf"{name} must list distinct nodes, got \[(\d), \1, \1\]"):
        build_irs_btt(scene, 1, planar_passive_codebook(4, 4), **kwargs)


def test_bs_btt_sounds_each_hop_once(monkeypatch):
    _forbid_draws(monkeypatch)
    scene = build_scene(indoor_hall_config(m0=4, kappa_db=10))
    with pytest.raises(ValueError, match=r"next_nodes must list distinct nodes, got \[1, 1\]"):
        build_bs_btt(scene, dft_codebook(32, 32, kind="active"), next_nodes=[1, 1])


@pytest.mark.parametrize("next_nodes", [[0], [1.0], [1, 10, 11]], ids=["self", "float", "unknown"])
def test_bs_btt_sounds_only_admissible_hops(next_nodes, monkeypatch):
    _forbid_draws(monkeypatch)
    scene = build_scene(indoor_hall_config(m0=4, kappa_db=10))
    with pytest.raises(ValueError, match="next_nodes entry"):
        build_bs_btt(scene, dft_codebook(32, 32, kind="active"), next_nodes=next_nodes)


# ---------------------------------------------------------------------------
# the per-trial draw store of fig13
# ---------------------------------------------------------------------------

def _recording_cn(monkeypatch):
    """Patch channels._cn to record the entropy of every stream it draws from."""
    from irsim import channels

    calls = []
    real = channels._cn

    def recording(rng, n_rx, n_tx):
        calls.append(rng.bit_generator.seed_seq.entropy)
        return real(rng, n_rx, n_tx)

    monkeypatch.setattr(channels, "_cn", recording)
    return calls


def _fig13_shaped_trial(seed, draws):
    """The route link matrices of one fig13 trial over the five finite
    kappas, on the hall at m0 = 4."""
    out = []
    for kappa_db in FIG13_KAPPAS_DB[:-1]:
        scene = build_scene(indoor_hall_config(m0=4, kappa_db=kappa_db))
        links = route_links(FIG13_PATH, scene.n_irs + 1)
        channels = synthesize_channels(scene, seed, links=links, draws=draws)
        out.append([channels.get(*link).matrix.tobytes() for link in links])
    return out


def test_a_trial_store_draws_each_route_link_once_across_the_finite_kappas(monkeypatch):
    assert "inf" not in FIG13_KAPPAS_DB[:-1] and len(FIG13_KAPPAS_DB[:-1]) == 5
    plain = _fig13_shaped_trial(8, None)
    calls = _recording_cn(monkeypatch)
    draws = {}
    stored = _fig13_shaped_trial(8, draws)
    assert stored == plain
    links = route_links(FIG13_PATH, build_scene(indoor_hall_config(m0=4)).n_irs + 1)
    assert collections.Counter(calls) == {(8, i, j): 1 for i, j in links}
    assert {key[0] for key in draws} == {(8, i, j) for i, j in links}


def test_fig13_csv_matches_its_golden_digest_drawing_each_route_link_once_per_trial(
        capsys, monkeypatch):
    """The CSV bytes of `irsim run --scenario fig13 --seed 3 --trials 2` with the
    tables' BS-fed sounding drawn projected onto the sounding beam, each route
    link's unit draw made once per trial rather than once per kappa.  The
    kappa = inf rows and every gain_sequential_db row are the bytes computed
    before the draw store, the trial-major loop and the projected sounding."""
    calls = _recording_cn(monkeypatch)
    assert main(["run", "--scenario", "fig13", "--seed", "3", "--trials", "2"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "4cfc6c27a8cc9f5b2e97e7166d5236d78c2631b77288eb9d1643e90d256a2ffa"
    links = collections.Counter(e for e in calls if len(e) == 3)
    assert len(links) == 2 * (len(FIG13_PATH) + 1) and set(links.values()) == {1}


# ---------------------------------------------------------------------------
# the projected controller sounding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config, j, rx_panel, blocked", [
    (zigzag_config(n_hops=2, m0=3, n_bs=4, kappa_db=0), 1, True, False),
    (zigzag_config(n_hops=2, m0=3, n_bs=4, kappa_db=0), 1, False, False),
    (chain_config(m0=3, n_bs=4, kappa_db=0), 2, True, True),
], ids=["incident", "reference", "blocked"])
def test_projected_sounding_has_the_law_of_the_projected_full_draw(config, j, rx_panel, blocked):
    """Over 4000 draws at a fixed seed, each entry of H @ w drawn projected
    has the closed-form mean, second moment E[y^2] and power E|y|^2 within 5
    standard errors, as does H @ w of the full Rician matrix drawn by its
    formula, and the two agree within 5 standard errors of their difference."""
    scene = build_scene(config)
    w = np.exp(2j * np.pi * np.arange(4) / 5)[None, :] * 0.7        # |w|^2 = 1.96
    n = 4000
    proj = _rician_rows(scene, 0, j, w, np.random.default_rng(31), n, rx_panel=rx_panel,
                        tx_side=True)[:, 0]
    pl, kappa, rho, a_rx, a_tx = _los_terms(scene, 0, j, rx_panel)
    assert (rho is None) == blocked and proj.shape == (n, scene.node_size(j) if rx_panel else 1)
    if blocked:
        los, kappa = np.zeros((proj.shape[1], scene.n_bs)), 0.0
    else:
        los = math.sqrt(kappa / (1 + kappa)) * rho * np.outer(a_rx, a_tx)
    rng = np.random.default_rng(32)
    shape = (n, proj.shape[1], scene.n_bs)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    full = (los + math.sqrt(pl / (1 + kappa)) * z) @ w[0]
    mean = los @ w[0]
    power = np.abs(mean) ** 2 + pl / (1 + kappa) * np.sum(np.abs(w) ** 2)
    moments = [(lambda y: y, mean), (lambda y: y ** 2, mean ** 2), (lambda y: np.abs(y) ** 2, power)]
    for moment, want in moments:
        a, b = moment(proj), moment(full)
        for q in (a, b):
            assert np.all(np.abs(q.mean(0) - want) <= 5 * q.std(0) / math.sqrt(n))
        assert np.all(np.abs(a.mean(0) - b.mean(0)) <= 5 * np.sqrt((a.var(0) + b.var(0)) / n))


def test_fig13_tables_draw_controller_rows_only(monkeypatch):
    """On the fig13 hall, the route's tables draw no 576 x 32 BS link: each
    (previous, next) hop draws its incident and its sounding as one block of
    ten 576-entry rows each, and its reference as ten scalars."""
    from irsim import channels

    shapes = collections.Counter()
    real = channels._cn
    monkeypatch.setattr(channels, "_cn", lambda rng, n_rx, n_tx: (
        shapes.update([(n_rx, n_tx)]) or real(rng, n_rx, n_tx)))
    scene = build_scene(indoor_hall_config(m0=24, kappa_db=10))
    links = route_links(FIG13_PATH, scene.n_irs + 1)
    for i, j in enumerate(FIG13_PATH):
        build_irs_btt(scene, j, planar_passive_codebook(32, 24), seed=3, averages=10,
                      prev_nodes=[links[i][0]], next_nodes=[links[i + 1][1]])
    assert shapes == {(1, 10 * 576): 3 * 2, (1, 10): 3}
