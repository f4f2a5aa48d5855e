"""Codebooks, beam searches, and the distributed training tables."""

import itertools

import numpy as np
import pytest

from irsim.beams import bs_mrt_to_first_irs, closed_form_path_gain, multi_hop_phases
from irsim.channels import cascaded_path_channel, synthesize_channels
from irsim.geometry import build_scene
from irsim.scenarios import with_users
from irsim.training import (Codebook, GainEvaluator, NotTrainable, approx_gain,
                            assemble_global_btt, beams_from_choices, build_bs_btt,
                            build_irs_btt, dft_codebook, distributed_route_and_beams,
                            dump_btt, exhaustive_search, irs_neighbor_sets, load_btt,
                            planar_passive_codebook, sequential_search,
                            best_beams_for_path)

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
    assert cb.beams.shape == (16, 9)
    line = dft_codebook(4, 3).beams
    assert np.allclose(cb.beams[1 * 4 + 2], np.kron(line[1], line[2]))


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
    result = exhaustive_search(channels, [1], bs_cb, irs_cbs)
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
    result = exhaustive_search(channels, [1, 2], bs_cb, irs_cbs)
    assert result.combinations == 2 * 4 * 4
    assert result.evaluations == result.combinations


def _brute_force_search(channels, users, bs_cb, irs_cbs, path):
    """(objective, BS index, surface indices) of the best combination, each
    scored alone by an evaluator sweep over a one-beam BS codebook; ties go
    to the lowest BS index, then the lowest surface indices."""
    evaluator = GainEvaluator(channels, users, irs_ids=sorted(irs_cbs), path=path)
    ids = evaluator.irs_ids
    best = None
    for b in range(bs_cb.size):
        one_beam = Codebook(kind="active", beams=bs_cb.beams[b:b + 1])
        for choice in itertools.product(*(range(irs_cbs[j].size) for j in ids)):
            irs_idx = dict(zip(ids, choice))
            _, phases = beams_from_choices(channels.scene, bs_cb, irs_cbs, {0: b, **irs_idx})
            obj = float(evaluator.sweep(0, one_beam, None, phases)[0])
            if best is None or obj > best[0]:
                best = (obj, b, irs_idx)
    return best


@pytest.mark.parametrize("n_hops", [1, 2])
@pytest.mark.parametrize("mode", ["graph", "path"])
def test_exhaustive_returns_brute_force_argmax(n_hops, mode):
    for seed, users in itertools.product(range(3), ([1], [1, 2])):
        _, channels, bs_cb, irs_cbs = _two_user_setup(seed=80 + seed, n_hops=n_hops)
        path = tuple(range(1, n_hops + 1)) if mode == "path" else None
        obj, bs_idx, irs_idx = _brute_force_search(channels, users, bs_cb, irs_cbs, path)
        result = exhaustive_search(channels, users, bs_cb, irs_cbs, path=path)
        assert (result.bs_index, result.irs_indices) == (bs_idx, irs_idx)
        assert result.objective == pytest.approx(obj, rel=1e-12)
        w, phases = beams_from_choices(channels.scene, bs_cb, irs_cbs, {0: bs_idx, **irs_idx})
        assert np.array_equal(result.w, w)
        assert all(np.array_equal(result.phases[j], phases[j]) for j in phases)


def test_exhaustive_refuses_oversized_search():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(n_hops=2)
    with pytest.raises(ValueError, match="combinations"):
        exhaustive_search(channels, [1], bs_cb, irs_cbs, max_combinations=3)


def test_exhaustive_finds_planted_optimum():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(n_hops=2)
    path = (1, 2)
    aligned = multi_hop_phases(channels, list(path), user=1)
    w_star = bs_mrt_to_first_irs(channels.get(0, 1).los_tx)
    bs_cb = Codebook(kind="active", beams=np.stack([bs_cb.beams[0], w_star]))
    for j in path:
        irs_cbs[j] = Codebook(kind="passive",
                              beams=np.stack([irs_cbs[j].beams[0], aligned[j]]))
    result = exhaustive_search(channels, [1], bs_cb, irs_cbs, path=path)
    seq = [0, *path, scene.n_irs + 1]
    want = closed_form_path_gain(2, 4, 2, scene.constants.beta,
                                 [scene.distance(a, b) for a, b in zip(seq[:-1], seq[1:])])
    c = scene.constants
    assert result.objective == pytest.approx(c.tx_power * want / c.noise_power, rel=1e-9)
    assert result.bs_index == 1 and result.irs_indices == {1: 1, 2: 1}


def test_sequential_cost_counts_and_dominance():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(kappa_db=8)
    seq = sequential_search(channels, [1], bs_cb, irs_cbs)
    per_sweep = bs_cb.size + sum(cb.size for cb in irs_cbs.values())
    assert seq.evaluations == seq.sweeps * per_sweep
    exh = exhaustive_search(channels, [1], bs_cb, irs_cbs)
    assert exh.objective >= seq.objective - 1e-15


def test_sequential_objective_nondecreasing_across_sweeps():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(kappa_db=3, seed=71)
    prev = 0.0
    for cap in range(1, 6):
        res = sequential_search(channels, [1], bs_cb, irs_cbs, max_sweeps=cap)
        assert res.objective >= prev - 1e-15
        prev = res.objective


def test_sequential_reaches_planted_optimum():
    scene, channels, bs_cb, irs_cbs = _tiny_setup(n_hops=2)
    path = (1, 2)
    aligned = multi_hop_phases(channels, list(path), user=1)
    w_star = bs_mrt_to_first_irs(channels.get(0, 1).los_tx)
    bs_cb = Codebook(kind="active", beams=np.stack([bs_cb.beams[0], w_star]))
    for j in path:
        irs_cbs[j] = Codebook(kind="passive",
                              beams=np.stack([irs_cbs[j].beams[0], aligned[j]]))
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
    w_star = bs_mrt_to_first_irs(
        synthesize_channels(scene, 0, links=[(0, 1)]).get(0, 1).los_tx)
    cb = Codebook(kind="active", beams=w_star[None, :])
    table = build_bs_btt(scene, cb, threshold=0.0, seed=2, averages=1)
    want = scene.n_bs * scene.constants.beta / scene.distance(0, 1) ** 2
    assert table.rows[(None, 0, 1)] == pytest.approx(want, rel=1e-9)


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
    cb = Codebook(kind="passive", beams=np.vstack([base.beams, aligned[1]]))
    table = build_irs_btt(scene, 1, cb, threshold=0.0, seed=4, averages=1,
                          prev_nodes=[0], next_nodes=[2])
    rows = {beam: rss for (p, beam, n), rss in table.rows.items()}
    assert max(rows, key=rows.get) == cb.size - 1


def test_online_rows_flagged_by_user_target():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    cb = planar_passive_codebook(2, 2)
    table = build_irs_btt(scene, 2, cb, threshold=0.0, seed=5)
    online = table.online_rows(scene)
    assert online and all(scene.is_user(key[2]) for key in online)
    offline = set(table.rows) - set(online)
    assert all(not scene.is_user(key[2]) for key in offline)


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
    assert gbtt.row_count() == len(bs_table.rows) + sum(len(t.rows) for t in tables)
    assert gbtt.online_row_count(scene) == sum(len(t.online_rows(scene)) for t in tables)
    with pytest.raises(ValueError, match="duplicate"):
        assemble_global_btt(bs_table, tables + [tables[0]])


def test_empty_irs_tables_leave_bs_only():
    scene = build_scene(zigzag_config(n_hops=1, m0=2, n_bs=2))
    bs_cb = dft_codebook(2, 2, kind="active")
    bs_table = build_bs_btt(scene, bs_cb, threshold=0.0, seed=8)
    gbtt = assemble_global_btt(bs_table, [])
    assert gbtt.row_count() == len(bs_table.rows)


def test_btt_serialization_roundtrip(tmp_path):
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    cb = planar_passive_codebook(2, 2)
    table = build_irs_btt(scene, 1, cb, threshold=0.0, seed=9)
    path = tmp_path / "btt.json"
    dump_btt(table, path)
    loaded = load_btt(path)
    assert loaded.owner == table.owner
    assert loaded.threshold == table.threshold
    assert loaded.rows == table.rows
    assert loaded.reference_rss == table.reference_rss


# ---------------------------------------------------------------------------
# composed gain estimates
# ---------------------------------------------------------------------------

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
    est = approx_gain(gbtt, (1,), scene.n_irs + 1, {0: 0, 1: 0})
    # single hop: the composition is BS RSS times one normalized hop
    bs_rss = gbtt.bs_table.rows[(None, 0, 1)]
    hop = gbtt.irs_tables[1].rows[(0, 0, 2)] / gbtt.irs_tables[1].reference_rss[0]
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
        est = approx_gain(gbtt, path, scene.n_irs + 1, choices)
        w, phases = beams_from_choices(scene, bs_cb, irs_cbs, choices)
        h = cascaded_path_channel(channels, list(path), phases, user=1)
        true = float(abs(h @ w) ** 2)
        assert est == pytest.approx(true, rel=1e-9)


def test_estimate_matched_beams_equals_closed_form():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    channels = synthesize_channels(scene, 13)
    path = (1, 2)
    aligned = multi_hop_phases(channels, list(path), user=1)
    w_star = bs_mrt_to_first_irs(channels.get(0, 1).los_tx)
    bs_cb = Codebook(kind="active", beams=w_star[None, :])
    irs_cbs = {j: Codebook(kind="passive", beams=aligned[j][None, :]) for j in path}
    gbtt = _pure_los_tables(scene, bs_cb, irs_cbs, path)
    est = approx_gain(gbtt, path, scene.n_irs + 1, {0: 0, 1: 0, 2: 0})
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
    est = approx_gain(gbtt, path, scene.n_irs + 1, {0: 0, 1: 0, 2: 0})
    w, phases = beams_from_choices(scene, bs_cb, irs_cbs, {0: 0, 1: 0, 2: 0})
    h = cascaded_path_channel(channels, list(path), phases, user=1)
    true = float(abs(h @ w) ** 2)
    # the gap exists but stays within a couple of orders of magnitude
    assert abs(est / true - 1.0) > 1e-6
    assert 1e-3 < est / true < 1e3


def test_missing_row_raises_not_trainable():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2))
    bs_cb = dft_codebook(2, 2, kind="active")
    irs_cbs = {j: planar_passive_codebook(2, 2) for j in (1, 2)}
    gbtt = _pure_los_tables(scene, bs_cb, irs_cbs, (1, 2))
    with pytest.raises(NotTrainable):
        approx_gain(gbtt, (1, 2), scene.n_irs + 1, {0: 0, 1: 99, 2: 0})
    empty = assemble_global_btt(build_bs_btt(scene, bs_cb, threshold=1e9, seed=0), [])
    with pytest.raises(NotTrainable):
        approx_gain(empty, (1,), scene.n_irs + 1, {0: 0, 1: 0})


# ---------------------------------------------------------------------------
# distributed selection
# ---------------------------------------------------------------------------

def test_distributed_matches_model_based_route_at_pure_los():
    scene = build_scene(zigzag_config(n_hops=3, m0=2, n_bs=2))
    channels = synthesize_channels(scene, 16)
    from irsim.geometry import build_los_graph
    from irsim.routing import optimal_single_route
    graph = build_los_graph(scene, 1)
    model = optimal_single_route(graph, 4, scene.constants.beta, scene.n_bs)

    # codebooks contain the aligned beams of the model-based optimum
    aligned = multi_hop_phases(channels, list(model.irs_sequence), user=1)
    bs_cb = Codebook(kind="active", beams=np.stack(
        [dft_codebook(2, 2, kind="active").beams[0],
         bs_mrt_to_first_irs(channels.get(0, model.irs_sequence[0]).los_tx)]))
    irs_cbs = {}
    for j in range(1, scene.n_irs + 1):
        base = planar_passive_codebook(2, 2).beams
        extra = aligned[j][None, :] if j in aligned else base[:1]
        irs_cbs[j] = Codebook(kind="passive", beams=np.vstack([base, extra]))

    bs_table = build_bs_btt(scene, bs_cb, seed=17, averages=1)
    tables = [build_irs_btt(scene, j, irs_cbs[j], seed=17, averages=1)
              for j in range(1, scene.n_irs + 1)]
    gbtt = assemble_global_btt(bs_table, tables)
    solution, choices = distributed_route_and_beams(scene, gbtt, bs_cb, irs_cbs,
                                                    users=[1])
    assert solution.paths[1].irs_sequence == model.irs_sequence
    assert solution.paths[1].gain == pytest.approx(model.gain, rel=1e-9)


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
        w, phases = beams_from_choices(scene, bs_cb, irs_cbs, choices)
        h = cascaded_path_channel(channels, list(path), phases, user=1)
        c = scene.constants
        dist_true = float(c.tx_power * abs(h @ w) ** 2 / c.noise_power)
        assert exh.objective >= seq.objective - 1e-12
        assert seq.objective >= dist_true - 1e-12
        checked += 1
    assert checked == 25


def test_distributed_untrainable_raises():
    scene = build_scene(zigzag_config(n_hops=1, m0=2, n_bs=2))
    bs_cb = dft_codebook(2, 2, kind="active")
    irs_cbs = {1: planar_passive_codebook(2, 2)}
    empty_bs = build_bs_btt(scene, bs_cb, threshold=1e9, seed=19)
    gbtt = assemble_global_btt(empty_bs, [])
    from irsim.routing import Infeasible
    with pytest.raises(Infeasible):
        distributed_route_and_beams(scene, gbtt, bs_cb, irs_cbs, users=[1])


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
        best = approx_gain(gbtt, path, user, best_beams_for_path(gbtt, path, user))
        for b0, b1, b2 in itertools.product(range(2), range(4), range(4)):
            assert best >= approx_gain(gbtt, path, user, {0: b0, 1: b1, 2: b2})


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
