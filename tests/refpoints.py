"""Reference parameter points shared across test modules."""

from wiretap_rates.gaussian import GeneralGaussianParams, OrthogonalGaussianParams

OG_POINT = OrthogonalGaussianParams(
    h_l=1.0, h_1m=0.8, h_2m=0.6, h_1c=0.5, h_2c=0.7,
    P_l=4.0, P_1e=2.0, P_2e=3.0,
    N_l=1.0, N_1e_m=1.0, N_2e_m=1.5, N_1e_c=0.8, N_2e_c=1.2,
)

GEN_POINT = GeneralGaussianParams(
    h_l=1.0, h_1e_l=0.5, h_2e_l=-0.4, h_l_1e=0.9, h_l_2e=0.7,
    h_2e_1e=0.3, h_1e_2e=0.6,
    P_l=4.0, P_1e=2.0, P_2e=3.0,
    N_l=1.0, N_1e=0.8, N_2e=1.2,
)

# Two shared-band scenarios of the point-fine benchmark pool (16 and 23),
# chosen because regrouping a sum or product in the grid terms moves their
# results: a plain shared-band point can hide such a change.  On scenario
# 16 the two searches of a point start their second descents from different
# points off the edges.
POOL_POINTS = {
    "scenario-16": GeneralGaussianParams(
        h_l=1.7126768603441191, h_1e_l=0.15073648919453786, h_2e_l=0.1327827879446411,
        h_l_1e=0.3307906366961495, h_l_2e=0.5597547293499034,
        h_2e_1e=0.5776538979333501, h_1e_2e=0.3873611673312065,
        P_l=2.1265771481461813, P_1e=1.3657906357217666, P_2e=0.9591565618012711,
        N_l=0.8182755600462116, N_1e=0.8859317426970704, N_2e=0.9480307830275063,
    ),
    "scenario-23": GeneralGaussianParams(
        h_l=1.7772109521262298, h_1e_l=0.24034395500480965, h_2e_l=0.12969174657107563,
        h_l_1e=0.5470146125847845, h_l_2e=0.6490548888907485,
        h_2e_1e=0.37305119825675326, h_1e_2e=0.5367823421472653,
        P_l=1.5395659899082863, P_1e=1.3432343870627155, P_2e=0.6437861192947286,
        N_l=1.0407104809423788, N_1e=0.8505943811252303, N_2e=0.9471747673758043,
    ),
}
