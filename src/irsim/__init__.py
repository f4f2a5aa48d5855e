"""irsim: multi-surface reflective wireless network simulator and optimizer."""

from .geometry import (Box, ConfigError, Constants, LosGraph, PanelArray, Scene,
                       build_los_graph, build_scene, half_space_ok,
                       has_geometric_los, is_admissible_link, load_scene,
                       los_indicator)
from .channels import (ChannelSet, LinkChannel, array_response, cascaded_path_channel,
                       effective_channel, effective_channel_affine, mrt_beam,
                       path_loss, synth_link, synthesize_channels, unit_phases)
from .beams import (BeamSolution, ao_joint_beamforming, closed_form_path_gain,
                    linear_receivers, multi_hop_phases)
from .routing import (Infeasible, NoFeasiblePath, ReflectionPath, RoutingSolution,
                      check_path_separation, edge_weight, enumerate_routes,
                      interference_audit, optimal_multi_route, optimal_single_route,
                      path_gain, unconstrained_multi_route)
from .training import (BeamTrainingTable, Codebook, NotTrainable, assemble_global_btt,
                       build_bs_btt, build_irs_btt, dft_codebook, exhaustive_search,
                       planar_passive_codebook, sequential_search)
from .estimation import (ls_estimate_cascaded_siso, overhead_benchmark_siso_general,
                         overhead_double_irs_single_user, overhead_multi_user_extra)

__version__ = "0.1.0"
