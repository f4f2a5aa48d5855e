"""Link synthesis, array responses, and multi-reflection composition."""

import collections
import itertools
import math
import re

import numpy as np
import pytest

import irsim.channels
import irsim.geometry
from irsim.channels import (ChannelSet, _cn_rows, _graph_edges, _los_terms, _rician_rows,
                            array_response, cascaded_path_channel, effective_channel,
                            effective_channel_affine, enumerate_graph_paths, mrt_beam, path_loss,
                            synth_link, synthesize_channels, unit_phases)
from irsim.geometry import PanelArray, build_los_graph, build_scene, route_links
from irsim.scenarios import indoor_hall_config

from conftest import chain_config, double_only_config, zigzag_config


WAVELENGTH = 0.06


def _panel(m0=3, spacing=WAVELENGTH / 4):
    return PanelArray(center=np.zeros(3), normal=np.array([0.0, -1.0, 0.0]),
                      shape=(m0, m0), spacing_m=spacing)


# ---------------------------------------------------------------------------
# array response
# ---------------------------------------------------------------------------

def test_broadside_response_is_all_ones():
    panel = _panel()
    resp = array_response(panel, panel.normal, WAVELENGTH)
    assert np.allclose(resp, 1.0)


def test_two_element_quarter_wave_endfire_phase_step():
    panel = PanelArray(center=np.zeros(3), normal=np.array([0.0, -1.0, 0.0]),
                       shape=(2, 1), spacing_m=WAVELENGTH / 4)
    ax_h = np.array([-1.0, 0.0, 0.0])          # horizontal axis for this normal
    resp = array_response(panel, ax_h, WAVELENGTH)
    # quarter-wavelength spacing along the look direction: pi/2 phase step
    assert abs(np.angle(resp[1] / resp[0])) == pytest.approx(np.pi / 2)
    assert np.allclose(np.abs(resp), 1.0)


def test_response_conjugate_symmetry():
    panel = _panel(4)
    rng = np.random.default_rng(0)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    assert np.allclose(array_response(panel, -d, WAVELENGTH),
                       np.conj(array_response(panel, d, WAVELENGTH)))


def test_non_unit_direction_rejected():
    with pytest.raises(ValueError):
        array_response(_panel(), [1.0, 1.0, 0.0], WAVELENGTH)


def test_element_grid_cached_once_under_concurrent_readers():
    import sys
    import threading
    panel = _panel(6)
    reads, errors = [], []

    def read():
        try:
            reads.append(panel.element_offsets)
        except Exception as exc:               # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    fresh = _panel(6).element_offsets
    assert len(reads) == 16 and all(np.array_equal(r, fresh) for r in reads)
    assert panel.element_offsets is panel.element_offsets
    assert not panel.element_offsets.flags.writeable


# ---------------------------------------------------------------------------
# path loss
# ---------------------------------------------------------------------------

def test_path_loss_reference_distance():
    assert path_loss(1.0, 2.0, 1e-3) == pytest.approx(1e-3)


def test_path_loss_inverse_square():
    assert path_loss(10.0, 2.0, 1e-3) == pytest.approx(1e-5)


def test_path_loss_alpha_override_for_inter_irs_link():
    cfg = double_only_config(link_overrides={"1-2": {"alpha": 2.5, "kappa_db": "-inf"}})
    scene = build_scene(cfg)
    alpha, kappa = scene.constants.link_params(1, 2, "irs_irs")
    assert alpha == 2.5 and kappa == 0.0
    link = synth_link(scene, 1, 2, np.random.default_rng(0))
    d = scene.distance(1, 2)
    assert link.path_loss_linear == pytest.approx(1e-3 * d ** -2.5)


def test_path_loss_requires_positive_distance():
    with pytest.raises(ValueError):
        path_loss(0.0, 2.0, 1e-3)


# ---------------------------------------------------------------------------
# synth_link
# ---------------------------------------------------------------------------

def test_pure_los_link_equals_los_component(chain_scene):
    link = synth_link(chain_scene, 0, 1, np.random.default_rng(1))
    assert np.allclose(link.matrix, link.los_gain * np.outer(link.los_rx, link.los_tx))
    assert np.allclose(np.abs(link.los_rx), 1.0)
    assert abs(link.los_gain) == pytest.approx(math.sqrt(link.path_loss_linear))


def test_rayleigh_entry_power_matches_path_loss():
    cfg = chain_config(m0=20, n_bs=20, kappa_db="-inf")
    scene = build_scene(cfg)
    rng = np.random.default_rng(2)
    acc, n = 0.0, 0
    for _ in range(300):
        link = synth_link(scene, 0, 1, rng)
        acc += float(np.sum(np.abs(link.matrix) ** 2))
        n += link.matrix.size
    assert acc / n == pytest.approx(link.path_loss_linear, rel=0.02)


def test_rician_power_split_20db():
    cfg = chain_config(kappa_db=20)
    scene = build_scene(cfg)
    _, kappa = scene.constants.link_params(0, 1, "bs_irs")
    assert kappa / (1 + kappa) == pytest.approx(0.990, abs=1e-3)


def test_blocked_link_is_pure_nlos(chain_scene):
    link = synth_link(chain_scene, 0, 2, np.random.default_rng(3))
    assert link.los_gain is None and link.los_rx is None and link.los_tx is None
    assert np.any(link.matrix != 0)


@pytest.mark.parametrize("kappa_db, i, j, blocked",
                         [(0, 0, 1, False), (10, 0, 1, False), (10, 1, 2, False), (10, 0, 2, True),
                          ("-inf", 0, 1, False)],
                         ids=["kappa_0db", "kappa_10db", "kappa_10db_irs_user", "blocked",
                              "rayleigh"])
def test_rician_draws_match_the_out_of_place_formula_bit_for_bit(kappa_db, i, j, blocked):
    scene = build_scene(chain_config(m0=3, n_bs=4, kappa_db=kappa_db))
    stream = np.random.default_rng(11)
    draws = [synth_link(scene, i, j, stream) for _ in range(4)]
    consts = scene.constants
    alpha, kappa = consts.link_params(i, j, scene.link_class(i, j))
    pl = path_loss(scene.distance(i, j), alpha, consts.beta)
    rng = np.random.default_rng(11)
    shape = (scene.node_size(j), scene.node_size(i))
    for link in draws:
        nlos = math.sqrt(pl) * ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                                / math.sqrt(2.0))
        if link.los_gain is None:
            want = nlos
        else:
            los = link.los_gain * np.outer(link.los_rx, link.los_tx)
            want = math.sqrt(kappa / (1 + kappa)) * los + math.sqrt(1 / (1 + kappa)) * nlos
        assert link.matrix.tobytes() == want.tobytes()
    assert (draws[0].los_gain is None) == blocked


def test_a_zero_weight_los_part_is_never_built(monkeypatch):
    # a Rayleigh link with geometric LoS keeps its LoS terms but mixes like a blocked one
    scene = build_scene(chain_config(m0=3, n_bs=4, kappa_db="-inf"))
    monkeypatch.setattr(irsim.channels, "_los_matrix",
                        lambda *args: pytest.fail("built the LoS matrix of a kappa = 0 link"))
    for draws in (None, {}):
        link = synth_link(scene, 0, 1, np.random.default_rng(4), draws)
        assert link.los_gain is not None and np.all(link.matrix != 0)


@pytest.mark.parametrize("kappa_db, j", [("-inf", 1), (10, 2)], ids=["rayleigh", "blocked"])
def test_zero_weight_projected_rows_match_the_mix_formula_bit_for_bit(kappa_db, j):
    scene = build_scene(chain_config(m0=3, n_bs=4, kappa_db=kappa_db))
    x = np.random.default_rng(7).standard_normal((2, 2 * scene.node_size(j))).view(complex)
    rows = _rician_rows(scene, 0, j, x, np.random.default_rng(8), count=3)
    _, pl, kappa, rho, a_rx, a_tx = _los_terms(scene, 0, j)
    los = 0.0 if rho is None else np.multiply.outer(rho * (x @ a_rx), a_tx)
    z = _cn_rows(np.random.default_rng(8), x, scene.n_bs * 3).reshape(2, 3, scene.n_bs)
    want = math.sqrt(kappa / (1 + kappa)) * los + math.sqrt(pl / (1 + kappa)) * z.swapaxes(0, 1)
    assert kappa == 0 and (rho is None) == (j == 2)
    assert rows.tobytes() == want.tobytes()


def test_link_terms_are_built_once_per_scene_and_link(monkeypatch):
    scene = build_scene(chain_config(m0=3, n_bs=4, kappa_db=10))
    calls = collections.Counter()
    real = irsim.geometry.has_geometric_los
    monkeypatch.setattr(irsim.geometry, "has_geometric_los",
                        lambda sc, i, j: calls.update([(i, j)]) or real(sc, i, j))
    for seed in range(3):
        synthesize_channels(scene, seed)
    assert calls == {link: 1 for link in scene._links[0]}
    # the memo holds numbers alone: every array response is built afresh for its caller
    assert all(v is None or np.isscalar(v) for terms in scene._terms.values() for v in terms)
    _los_terms(scene, 0, 1)[4][:] = 0
    assert np.all(np.abs(_los_terms(scene, 0, 1)[4]) == 1)


def test_scenes_differing_only_in_kappa_keep_their_own_link_terms():
    scenes = {k: build_scene(chain_config(m0=3, n_bs=4, kappa_db=k)) for k in (0, 10)}
    for k in (0, 10, 0):
        terms = _los_terms(scenes[k], 0, 1)
        assert terms[2] == scenes[k].constants.kappa == pytest.approx(10 ** (k / 10))
        other = _los_terms(scenes[10 - k], 0, 1)
        assert terms[:2] + terms[3:4] == other[:2] + other[3:4]      # d, path loss, rho


def test_pure_los_draws_all_equal_the_los_matrix(chain_scene):
    stream = np.random.default_rng(5)
    draws = [synth_link(chain_scene, 0, 1, stream) for _ in range(3)]
    link = draws[0]
    los = link.los_gain * np.outer(link.los_rx, link.los_tx)
    assert all(np.array_equal(d.matrix, los) for d in draws)


def test_link_substreams_independent_of_other_links(chain_scene):
    full = synthesize_channels(chain_scene, seed=9)
    restricted = synthesize_channels(chain_scene, seed=9, links=[(0, 1)])
    assert np.array_equal(full.get(0, 1).matrix, restricted.get(0, 1).matrix)


@pytest.mark.parametrize("rows", [[0, 1, 2], [0, 1, 0, 1], [0, 1, 2, 3, 4]],
                         ids=["full_rank", "repeated_rows", "more_rows_than_columns"])
def test_projected_draw_has_the_law_of_the_full_draw(monkeypatch, rows):
    # x @ Z, Z unit complex Gaussian, has i.i.d. columns CN(0, x x^H): the
    # sample covariance of n columns is n x x^H within a few standard errors,
    # drawn with min(x.shape) Gaussian rows
    base = np.random.default_rng(12).standard_normal((5, 6)).view(complex)
    x, n = base[rows], 20000
    drawn = []
    cn = irsim.channels._cn
    monkeypatch.setattr(irsim.channels, "_cn",
                        lambda rng, r, c: drawn.append((r, c)) or cn(rng, r, c))
    y = _cn_rows(np.random.default_rng(13), x, n)
    assert y.shape == (len(rows), n) and drawn == [(min(x.shape), n)]
    want = x @ x.conj().T
    power = np.diag(want).real
    assert np.all(np.abs(y @ y.conj().T - n * want) <= 5 * np.sqrt(n * np.outer(power, power)))
    if len(rows) == 4:                       # repeated rows of x give equal rows of x @ Z
        np.testing.assert_allclose(y[2:], y[:2], rtol=0, atol=1e-12 * np.abs(y).max())


# ---------------------------------------------------------------------------
# cascaded composition
# ---------------------------------------------------------------------------

def _brute_force_path(channels, path, phases, user=1):
    """Multilinear expansion over all element index tuples."""
    scene = channels.scene
    target = scene.n_irs + user
    links = [channels.get(0, path[0]).matrix]
    links += [channels.get(a, b).matrix for a, b in zip(path[:-1], path[1:])]
    links.append(channels.get(path[-1], target).matrix)
    sizes = [scene.node_size(j) for j in path]
    h = np.zeros(scene.n_bs, dtype=complex)
    for b in range(scene.n_bs):
        total = 0.0 + 0.0j
        for idx in itertools.product(*(range(s) for s in sizes)):
            amp = links[0][idx[0], b] * phases[path[0]][idx[0]]
            for hop, (m_in, m_out) in enumerate(zip(idx[:-1], idx[1:])):
                amp *= links[hop + 1][m_out, m_in] * phases[path[hop + 1]][m_out]
            amp *= links[-1][0, idx[-1]]
            total += amp
        h[b] = total
    return h


def test_single_hop_hand_case():
    # 1x1 panels everywhere: the cascade is a plain product of scalars
    cfg = chain_config(m0=1, n_bs=1)
    scene = build_scene(cfg)
    channels = synthesize_channels(scene, 0)
    phases = {1: np.ones(1, dtype=complex)}
    h = cascaded_path_channel(channels, [1], phases)
    expected = channels.get(0, 1).matrix[0, 0] * channels.get(1, 2).matrix[0, 0]
    assert h[0] == pytest.approx(expected)


def test_cascade_matches_multilinear_expansion():
    scene = build_scene(zigzag_config(n_hops=3, m0=2, n_bs=3, kappa_db=5))
    channels = synthesize_channels(scene, 4)
    rng = np.random.default_rng(5)
    phases = {j: np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) for j in (1, 2, 3)}
    got = cascaded_path_channel(channels, [1, 2, 3], phases)
    want = _brute_force_path(channels, [1, 2, 3], phases)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12


def test_cascade_multilinear_in_each_phase_entry():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2, kappa_db=10))
    channels = synthesize_channels(scene, 6)
    rng = np.random.default_rng(7)
    phases = {j: np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) for j in (1, 2)}
    h0 = cascaded_path_channel(channels, [1, 2], phases)
    for j in (1, 2):
        for m in range(4):
            bumped = {k: v.copy() for k, v in phases.items()}
            bumped[j][m] *= 2.0      # linearity: doubling one coefficient
            h1 = cascaded_path_channel(channels, [1, 2], bumped)
            zeroed = {k: v.copy() for k, v in phases.items()}
            zeroed[j][m] = 0.0
            hz = cascaded_path_channel(channels, [1, 2], zeroed)
            assert np.allclose(h1 - hz, 2.0 * (h0 - hz), rtol=1e-10)


@pytest.mark.parametrize("require_los", [True, False])
@pytest.mark.parametrize("user", [1, 2])
def test_composition_walks_the_los_graph_edge_order(user, require_los):
    # composition walks the admissible graph, routing the LoS one: both keep this order
    scene = build_scene(indoor_hall_config(m0=4))
    admissible = build_los_graph(scene, user, False)
    assert _graph_edges(ChannelSet(scene, seed=0), user) == admissible.edge_order
    graph = build_los_graph(scene, user, require_los)
    # reference: surfaces by decreasing BS distance, then the BS, each with its successors
    surfaces = [n for n in graph.bs_distance if n not in (0, graph.user_node)]
    by_distance = sorted(surfaces, key=lambda n: -graph.bs_distance[n]) + [0]
    assert graph.edge_order == tuple((v, w) for v in by_distance
                                     for w in sorted(t for (u, t) in graph.edges if u == v))


def test_effective_channel_without_surfaces_is_direct():
    cfg = chain_config()
    cfg["effective_regions"] = {"1": []}
    scene = build_scene(cfg)
    channels = synthesize_channels(scene, 8)
    h = effective_channel(channels, 1, {})
    assert np.array_equal(h, channels.direct(1))


def test_double_irs_effective_channel_is_four_term_sum():
    # all four composition terms present: direct + two singles + double
    cfg = double_only_config(m0=2, n_bs=3, kappa_db=7)
    cfg["obstacles"] = []
    scene = build_scene(cfg)
    channels = synthesize_channels(scene, 10)
    rng = np.random.default_rng(11)
    phases = {j: np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) for j in (1, 2)}
    assert build_los_graph(scene, 1, True) == build_los_graph(scene, 1, False)
    h = effective_channel(channels, 1, phases)
    t_direct = channels.direct(1)
    t_single1 = cascaded_path_channel(channels, [1], phases)
    t_single2 = cascaded_path_channel(channels, [2], phases)
    t_double = cascaded_path_channel(channels, [1, 2], phases)
    assert np.allclose(h, t_direct + t_single1 + t_single2 + t_double, rtol=1e-12)


def test_effective_channel_matches_path_enumeration():
    scene = build_scene(zigzag_config(n_hops=3, m0=2, n_bs=2, kappa_db=12))
    channels = synthesize_channels(scene, 12)
    rng = np.random.default_rng(13)
    phases = {j: np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) for j in (1, 2, 3)}
    graph = build_los_graph(scene, 1)
    assert graph == build_los_graph(scene, 1, False)
    paths = enumerate_graph_paths(graph)
    assert len(paths) > 3
    want = channels.direct(1).copy()
    for p in paths:
        want = want + cascaded_path_channel(channels, list(p), phases)
    got = effective_channel(channels, 1, phases)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12


def test_effective_channel_affine_decomposition():
    scene = build_scene(zigzag_config(n_hops=3, m0=2, n_bs=2, kappa_db=12))
    channels = synthesize_channels(scene, 14)
    rng = np.random.default_rng(15)
    phases = {j: np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) for j in (1, 2, 3)}
    w = mrt_beam(rng.normal(size=2) + 1j * rng.normal(size=2))
    amp = effective_channel(channels, 1, phases, include_direct=False) @ w
    sweep = effective_channel_affine(channels, 1, phases, (3, 1, 2), w)
    seen = []
    for j, base, coeff in sweep:
        seen.append(j)
        assert np.shape(base) == () and coeff.shape == (4,)
        assert np.isclose(base + phases[j] @ coeff, amp, rtol=1e-12)
        # swapping the phase vector stays consistent
        other = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        moved = {**phases, j: other}
        amp_other = effective_channel(channels, 1, moved, include_direct=False) @ w
        assert np.isclose(base + other @ coeff, amp_other, rtol=1e-12)
    assert seen == [1, 2, 3]             # BS first, whatever order they are named in


def _no_composition(*args, **kwargs):
    raise AssertionError("a channel was composed")


@pytest.mark.parametrize("subset", [[99], [0], []])
def test_effective_channel_rejects_a_bad_subset_before_any_composition(monkeypatch, subset):
    channels = synthesize_channels(build_scene(indoor_hall_config(m0=4)), 46)
    monkeypatch.setattr(irsim.channels, "_compose", _no_composition)
    message = rf"irs_subset must list distinct IRS ids in 1\.\.8, got {re.escape(str(subset))}"
    with pytest.raises(ValueError, match=message):
        effective_channel(channels, 1, unit_phases(channels.scene), include_direct=False,
                          irs_subset=subset)


def test_effective_channel_rejects_phases_missing_a_surface_of_its_graph(monkeypatch):
    channels = synthesize_channels(build_scene(indoor_hall_config(m0=4)), 46)
    monkeypatch.setattr(irsim.channels, "_compose", _no_composition)
    with pytest.raises(ValueError, match=r"phases lacks IRS \[.*8\] of user 1's graph"):
        effective_channel(channels, 1, {})
    partial = {j: p for j, p in unit_phases(channels.scene).items() if j != 8}
    with pytest.raises(ValueError, match=r"phases lacks IRS \[8\] of user 1's graph"):
        effective_channel(channels, 1, partial)


def test_compositions_reject_phases_missing_a_surface_or_of_the_wrong_length(monkeypatch):
    channels = synthesize_channels(build_scene(indoor_hall_config(m0=4)), 46)
    monkeypatch.setattr(irsim.channels, "_compose", _no_composition)
    phases = unit_phases(channels.scene)
    with pytest.raises(ValueError, match=r"phases lacks IRS \[4, 5\] of path \[3, 4, 5\]"):
        cascaded_path_channel(channels, [3, 4, 5], {3: phases[3]})
    for bad in (phases[4][:-1], phases[4][None]):
        wrong = {**phases, 4: bad}
        message = rf"phases of IRS 4 must have 16 entries, got shape {re.escape(str(bad.shape))}"
        with pytest.raises(ValueError, match=message):
            cascaded_path_channel(channels, [3, 4, 5], wrong)
        with pytest.raises(ValueError, match=message):
            effective_channel(channels, 1, wrong)


def test_common_phase_rotation_leaves_single_path_gain():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=3))
    channels = synthesize_channels(scene, 16)
    phases = unit_phases(scene)
    h0 = cascaded_path_channel(channels, [1, 2], phases)
    rotated = {k: v.copy() for k, v in phases.items()}
    rotated[1] = rotated[1] * np.exp(1j * 0.7)
    h1 = cascaded_path_channel(channels, [1, 2], rotated)
    assert np.linalg.norm(h1) == pytest.approx(np.linalg.norm(h0), rel=1e-12)


def test_mrt_beam_unit_norm_and_gain():
    rng = np.random.default_rng(17)
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    w = mrt_beam(h)
    assert np.linalg.norm(w) == pytest.approx(1.0)
    assert abs(h @ w) == pytest.approx(np.linalg.norm(h))



# ---------------------------------------------------------------------------
# draw store
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kappa_db", [0, 10, "inf"])
def test_a_draw_store_leaves_every_channel_bit_identical(kappa_db):
    scene = build_scene(chain_config(m0=3, n_bs=4, kappa_db=kappa_db))
    plain = synthesize_channels(scene, seed=4)
    draws = {}
    for _ in range(2):                 # drawing into the store, then mixing from it
        stored = synthesize_channels(scene, seed=4, draws=draws)
        assert plain.links.keys() == stored.links.keys()
        for key, link in plain.links.items():
            assert stored.links[key].matrix.tobytes() == link.matrix.tobytes()
    assert plain.get(0, 2).los_gain is None
    stored_links = {key[0][1:] for key in draws}       # a pure-LoS link draws nothing
    assert stored_links == ({(0, 2)} if kappa_db == "inf" else {(0, 1), (0, 2), (1, 2)})


def test_kappas_of_one_trial_mix_the_same_stored_draw_by_the_formula():
    seed, draws, unit = 6, {}, {}
    for kappa_db in (0.0, 20.0):
        scene = build_scene(indoor_hall_config(m0=4, kappa_db=kappa_db))
        links = route_links((3, 4, 5), scene.n_irs + 1)
        channels = synthesize_channels(scene, seed, links=links, draws=draws)
        consts = scene.constants
        for i, j in links:
            z = draws[((seed, i, j), scene.node_size(j), scene.node_size(i))]
            assert unit.setdefault((i, j), z.tobytes()) == z.tobytes()   # never mutated
            link = channels.get(i, j)
            alpha, kappa = consts.link_params(i, j, scene.link_class(i, j))
            pl = path_loss(scene.distance(i, j), alpha, consts.beta)
            los = link.los_gain * np.outer(link.los_rx, link.los_tx)
            want = (math.sqrt(kappa / (1 + kappa)) * los
                    + math.sqrt(1 / (1 + kappa)) * (math.sqrt(pl) * z))
            assert link.matrix.tobytes() == want.tobytes()
    assert len(draws) == len(links)


def test_a_store_reused_with_another_seed_gives_that_seeds_channels():
    scene = build_scene(chain_config(m0=3, n_bs=4, kappa_db=10))
    draws = {}
    first = synthesize_channels(scene, seed=1, draws=draws)
    second = synthesize_channels(scene, seed=2, draws=draws)
    plain = synthesize_channels(scene, seed=2)
    for key, link in plain.links.items():
        assert second.links[key].matrix.tobytes() == link.matrix.tobytes()
        assert not np.array_equal(second.links[key].matrix, first.links[key].matrix)
