"""The public names of the irsim package: a change to this list is a change
to the library API, and the commit that makes it says why."""

import types

import irsim

PUBLIC_NAMES = [
    "BeamSolution", "BeamTrainingTable", "Box", "ChannelSet", "Codebook", "ConfigError",
    "Constants", "Infeasible", "LinkChannel", "LosGraph", "NoFeasiblePath", "NotTrainable",
    "PanelArray", "ReflectionPath", "RoutingSolution", "Scene", "ao_joint_beamforming",
    "array_response", "assemble_global_btt", "build_bs_btt", "build_irs_btt", "build_los_graph",
    "build_scene", "cascaded_path_channel", "check_path_separation", "closed_form_path_gain",
    "dft_codebook", "edge_weight", "effective_channel", "effective_channel_affine",
    "enumerate_routes", "exhaustive_search", "half_space_ok", "has_geometric_los",
    "interference_audit", "is_admissible_link", "linear_receivers", "load_scene",
    "los_indicator", "ls_estimate_cascaded_siso", "mrt_beam", "multi_hop_phases",
    "optimal_multi_route", "optimal_single_route", "overhead_benchmark_siso_general",
    "overhead_double_irs_single_user", "overhead_multi_user_extra", "path_gain", "path_loss",
    "planar_passive_codebook", "sequential_search", "synth_link", "synthesize_channels",
    "unconstrained_multi_route", "unit_phases",
]


def test_the_package_exports_exactly_the_pinned_public_names():
    # submodules become package attributes as they are imported, so they are not names of the API
    exported = sorted(name for name, value in vars(irsim).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES
