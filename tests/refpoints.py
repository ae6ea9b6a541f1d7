"""Reference parameter points shared across test modules."""

import random

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


def pool_point(k: int) -> GeneralGaussianParams:
    """Scenario k of the point-fine benchmark pool (0 to 23), drawn the way
    the benchmark draws it: weak jamming gains and a legitimate link stronger
    than either listening link."""
    u = random.Random(f"point-fine:{k}").uniform
    return GeneralGaussianParams(
        h_l=u(1.2, 2.0), h_1e_l=u(0.05, 0.25), h_2e_l=u(0.05, 0.25),
        h_l_1e=u(0.3, 0.7), h_l_2e=u(0.3, 0.7),
        h_2e_1e=u(0.2, 0.6), h_1e_2e=u(0.2, 0.6),
        P_l=u(1.0, 4.0), P_1e=u(0.5, 2.0), P_2e=u(0.5, 2.0),
        N_l=u(0.8, 1.2), N_1e=u(0.8, 1.2), N_2e=u(0.8, 1.2),
    )


# Two shared-band scenarios of the point-fine benchmark pool (16 and 23),
# chosen because regrouping a sum or product in the grid terms moves their
# results: a plain shared-band point can hide such a change.  On scenario
# 16 the two searches of a point start their second descents from different
# points off the edges.
POOL_POINTS = {f"scenario-{k}": pool_point(k) for k in (16, 23)}
