"""irsim: multi-surface reflective wireless network simulator and optimizer."""

from .geometry import (Box, ConfigError, Constants, LosGraph, PanelArray, Scene,
                       build_los_graph, build_scene, half_space_ok,
                       has_geometric_los, is_admissible_link, load_scene,
                       los_indicator)
from .channels import (ChannelSet, LinkChannel, array_response, cascaded_path_channel,
                       effective_channel, effective_channel_affine, mrt_beam,
                       path_loss, synth_link, synthesize_channels, unit_phases)
from .beams import (BeamSolution, ao_joint_beamforming, channel_rank_gain_check,
                    closed_form_path_gain, common_phase_combine, double_reflection_factors,
                    linear_receivers, multi_hop_phases, optimal_double_reflection_phases,
                    path_gain_with_direct)
from .routing import (Infeasible, NoFeasiblePath, ReflectionPath, RoutingSolution,
                      check_path_separation, edge_weight, enumerate_routes,
                      interference_audit, optimal_multi_route, optimal_single_route,
                      optimal_single_route_with_direct, path_gain,
                      unconstrained_multi_route)
from .training import (BeamTrainingTable, Codebook, NotTrainable, approx_gain,
                       assemble_global_btt, build_bs_btt, build_irs_btt, dft_codebook,
                       distributed_route_and_beams, exhaustive_search,
                       planar_passive_codebook, sequential_search)
from .estimation import (ls_estimate_cascaded_siso, ls_estimate_los_decoupled,
                         overhead_benchmark_siso_general,
                         overhead_double_irs_single_user, overhead_multi_user_extra)

__version__ = "0.1.0"
