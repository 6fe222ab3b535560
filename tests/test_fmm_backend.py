"""FMMBackend: accuracy vs DirectBackend, determinism under the checked
executor, and registry/config integration. Its wall clock is timed by
the ``lattice64_fmm`` workload of ``bench/``.

Scenes place cells on a lattice with spacing 2.4 for unit radius —
random centers overlap and turn the comparison into a near-singular
stress test instead of a far-field accuracy check.
"""
import numpy as np
import pytest

from repro import ReproConfig, Scenario
from repro.core import make_backend
from repro.core.interactions import DirectBackend, FMMBackend
from repro.runtime.executor import CheckedExecutor
from repro.surfaces import biconcave_rbc, sphere


def lattice_scene(ncells, order, seed=7, spacing=2.4):
    cells = []
    for k in range(ncells):
        center = (spacing * (k % 4), spacing * ((k // 4) % 4),
                  spacing * (k // 16) + 0.05 * (-1) ** k)
        cells.append(biconcave_rbc(1.0, center=center, order=order))
    rng = np.random.default_rng(seed)
    forces = [rng.normal(size=(c.grid.nlat, c.grid.nphi, 3))
              for c in cells]
    return cells, forces


def rel_error(ref, got):
    num = sum(np.linalg.norm(a - b) ** 2 for a, b in zip(ref, got)) ** 0.5
    den = sum(np.linalg.norm(a) ** 2 for a in ref) ** 0.5
    return num / den


@pytest.fixture(scope="module")
def six_cell_scene():
    return lattice_scene(6, 8)


@pytest.fixture(scope="module")
def direct_cell_cell(six_cell_scene):
    cells, forces = six_cell_scene
    be = DirectBackend().bind(cells, 1.0)
    be.prepare(forces)
    return be.cell_cell(), be


class TestFMMBackendAccuracy:
    @pytest.mark.parametrize("e,tol", [(4, 5e-3), (5, 5e-3),
                                       (6, 1e-4), (8, 1e-4)])
    def test_cell_cell_matches_direct(self, six_cell_scene,
                                      direct_cell_cell, e, tol):
        cells, forces = six_cell_scene
        ref, _ = direct_cell_cell
        fmm = FMMBackend(equiv_points_per_edge=e).bind(cells, 1.0)
        fmm.prepare(forces)
        assert rel_error(ref, fmm.cell_cell()) < tol

    def test_evaluate_at_matches_direct(self, six_cell_scene,
                                        direct_cell_cell):
        cells, forces = six_cell_scene
        _, direct = direct_cell_cell
        fmm = FMMBackend().bind(cells, 1.0)
        fmm.prepare(forces)
        targets = np.array([[12.0, 1.0, 0.5], [5.0, 5.0, 5.0],
                            [-3.0, 0.2, 0.1], [2.4, 2.4, 9.0]])
        ud = direct.evaluate_at(targets)
        uf = fmm.evaluate_at(targets)
        assert np.linalg.norm(ud - uf) / np.linalg.norm(ud) < 5e-3

    def test_stats_exposed(self, six_cell_scene):
        cells, forces = six_cell_scene
        fmm = FMMBackend().bind(cells, 1.0)
        fmm.prepare(forces)
        fmm.cell_cell()
        stats = fmm.stats
        assert set(stats) == {"p2p", "m2p", "m2l", "l2p", "p2l"}
        assert stats["p2p"] > 0


class TestFMMBackendDeterminism:
    def test_threaded_checked_bit_identical_to_serial(self, six_cell_scene):
        cells, forces = six_cell_scene
        serial = FMMBackend().bind(cells, 1.0)
        serial.prepare(forces)
        b_serial = serial.cell_cell()

        threaded = FMMBackend().bind(cells, 1.0)
        threaded.executor = CheckedExecutor(workers=2)
        threaded.prepare(forces)
        b_threaded = threaded.cell_cell()
        for s, t in zip(b_serial, b_threaded):
            assert s.tobytes() == t.tobytes()

        targets = np.array([[12.0, 1.0, 0.5], [5.0, 5.0, 5.0]])
        assert (serial.evaluate_at(targets).tobytes()
                == threaded.evaluate_at(targets).tobytes())


class TestFMMBackendIntegration:
    def test_registry_and_options(self):
        be = make_backend("fmm", equiv_points_per_edge=6, max_leaf=200)
        assert isinstance(be, FMMBackend)
        opts = be.options()
        assert opts["equiv_points_per_edge"] == 6
        assert opts["max_leaf"] == 200
        assert type(be)(**opts).options() == opts

    def test_config_accepts_fmm(self):
        cfg = ReproConfig(backend="fmm",
                          backend_options={"equiv_points_per_edge": 6})
        assert ReproConfig.from_dict(cfg.to_dict()) == cfg

    def test_builder_steps_with_fmm_backend(self):
        sim = (Scenario.builder()
               .cell(sphere(1.0, order=5))
               .cell(sphere(1.0, center=(2.4, 0.0, 0.0), order=5))
               .backend("fmm", equiv_points_per_edge=4)
               .build())
        assert isinstance(sim.backend, FMMBackend)
        sim.step()
        for c in sim.cells:
            assert np.all(np.isfinite(c.points))
