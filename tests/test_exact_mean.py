"""The Monte Carlo sweep against an exact ensemble mean.

Under uniform white noise every network site draws an independent U(0, A)
detuning in every segment, so on a clean chip the mean state is exact
without sampling: one averaged channel rho <- E[U(d) rho U(d)^H] per
segment, the expectation over the seven detunings a tensor Gauss-Legendre
rule.  With two nodes a site (128 in all) the rule is converged to about
1e-4 at A <= 1 (three nodes move it by 4e-6 at A = 0.5 and 1e-4 at A = 1).
This checks the noise scaling, the sign of the detunings, the sink
fraction and the kernel together, against something that is not Monte
Carlo.
"""

import itertools

import numpy as np
import pytest

from fmosim import experiments, model
from fmosim.experiments import DEFAULT_GRID, SweepConfig, sweep_dephasing


def exact_mean_efficiency(amplitude: float, nodes_per_site: int = 2) -> float:
    """The ensemble-mean sink fraction of the default clean chip at the
    end of the chip, under uniform white noise of ``amplitude``, on a
    chip of its own: the network and 34 sink waveguides.  The sweep
    evolves the first 18 of them, its light cone, whose sink fractions are
    within 2 LIGHT_CONE_TOL of this chip's."""
    cfg = SweepConfig()
    h = model.attach_sink(experiments.network_hamiltonian(cfg), 34)
    assert h.dim == 41
    sites, dim = h.fmo_indices, h.dim
    x, w = np.polynomial.legendre.leggauss(nodes_per_site)
    rule = np.array(list(itertools.product(range(nodes_per_site),
                                           repeat=len(sites))))
    weights = np.prod(w[rule] / 2, axis=1)
    hs = np.repeat(h.matrix[None], len(rule), axis=0)
    hs[:, sites, sites] += amplitude * (1 + x[rule]) / 2
    e, v = np.linalg.eigh(hs)
    dz = cfg.observe_z / cfg.segments
    us = (v * np.exp(-1j * dz * e)[:, None, :]) @ v.transpose(0, 2, 1)
    # sum_k w_k U_k rho U_k^H as two products over the stacked nodes
    right = us.conj().transpose(0, 2, 1).reshape(-1, dim)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[h.source_index, h.source_index] = 1.0
    for _ in range(cfg.segments):
        left = weights[:, None, None] * (us.reshape(-1, dim) @ rho).reshape(
            len(rule), dim, dim)
        rho = left.transpose(1, 0, 2).reshape(dim, -1) @ right
    p = rho.diagonal().real
    return float(p[h.sink_indices].sum() / p.sum())


@pytest.fixture(scope="module")
def exact_curve():
    return {a: exact_mean_efficiency(a) for a in DEFAULT_GRID}


def test_noiseless_chip_is_the_sweep_value(exact_curve):
    # the sweep runs on the leading 25 rows of the same 41-row chip
    [[value]] = sweep_dephasing(SweepConfig(grid=(0.0,),
                                            realizations=1)).values
    assert abs(exact_curve[0.0] - value) < 1e-12
    assert round(value, 6) == 0.183154


def test_sweep_means_are_the_exact_mean_within_three_se(exact_curve):
    # a realization's efficiency spreads by about 0.072 at A = 0.5 and
    # 0.115 at A = 1.  1,200 realizations give standard errors of 0.0021
    # and 0.0033, so the 3 SE band at A = 1 is narrower than the 0.010
    # the exact mean moves between A = 0.9 and 1: a noise amplitude off
    # by one grid step fails.
    res = sweep_dephasing(SweepConfig(grid=(0.5, 1.0), realizations=1200))
    se = res.values.std(axis=1, ddof=1) / np.sqrt(res.values.shape[1])
    assert np.all(se < 0.0035)
    for a, mean, err in zip(res.grid, res.means, se):
        assert abs(mean - exact_curve[a]) < 3 * err, (a, mean, exact_curve[a])


def test_exact_optimum_of_the_default_grid(exact_curve):
    values = [exact_curve[a] for a in DEFAULT_GRID]
    assert DEFAULT_GRID[int(np.argmax(values))] == 0.5
