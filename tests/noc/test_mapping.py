"""Tests for NoC mapping algorithms (E3)."""

import pytest

from repro.core.application import Dependency, Task, TaskGraph
from repro.noc import (
    Mesh2D,
    NocEnergyModel,
    NocMapping,
    Tile,
    adhoc_mapping,
    branch_and_bound_mapping,
    greedy_mapping,
    mms_apcg,
    random_multimedia_apcg,
    random_noc_mapping,
    simulated_annealing_mapping,
    video_surveillance_apcg,
)
from repro.noc.mapping import _bit_energy_table


def two_task_graph(bits=1e6):
    tg = TaskGraph("pair")
    tg.add_task(Task("a", 1.0))
    tg.add_task(Task("b", 1.0))
    tg.add_dependency(Dependency("a", "b", bits=bits))
    return tg


class TestNocMapping:
    def test_duplicate_tile_rejected(self):
        mesh = Mesh2D(2, 2)
        with pytest.raises(ValueError):
            NocMapping(mesh, {"a": Tile(0, 0), "b": Tile(0, 0)})

    def test_off_mesh_tile_rejected(self):
        mesh = Mesh2D(2, 2)
        with pytest.raises(ValueError):
            NocMapping(mesh, {"a": Tile(5, 5)})

    def test_validate_requires_all_tasks(self):
        tg = two_task_graph()
        mapping = NocMapping(Mesh2D(2, 2), {"a": Tile(0, 0)})
        with pytest.raises(ValueError, match="unmapped"):
            mapping.validate(tg)

    def test_communication_energy_adjacent_vs_far(self):
        tg = two_task_graph(bits=1e6)
        mesh = Mesh2D(3, 3)
        model = NocEnergyModel()
        near = NocMapping(mesh, {"a": Tile(0, 0), "b": Tile(1, 0)})
        far = NocMapping(mesh, {"a": Tile(0, 0), "b": Tile(2, 2)})
        assert near.communication_energy(tg, model) < \
            far.communication_energy(tg, model)

    def test_weighted_hop_count(self):
        tg = two_task_graph()
        mesh = Mesh2D(3, 3)
        mapping = NocMapping(mesh, {"a": Tile(0, 0), "b": Tile(2, 2)})
        assert mapping.weighted_hop_count(tg) == pytest.approx(4.0)

    def test_zero_traffic_graph(self):
        tg = TaskGraph()
        tg.add_task(Task("only", 1.0))
        mapping = NocMapping(Mesh2D(1, 1), {"only": Tile(0, 0)})
        assert mapping.weighted_hop_count(tg) == 0.0
        assert mapping.communication_energy(tg, NocEnergyModel()) == 0.0


class TestMappingAlgorithms:
    @pytest.fixture(scope="class")
    def problem(self):
        return video_surveillance_apcg(), Mesh2D(4, 3), NocEnergyModel()

    def test_too_many_tasks_rejected(self):
        tg = random_multimedia_apcg(10, seed=0)
        with pytest.raises(ValueError, match="fit"):
            adhoc_mapping(tg, Mesh2D(3, 3))

    def test_all_algorithms_produce_valid_mappings(self, problem):
        tg, mesh, __ = problem
        for algorithm in (adhoc_mapping, greedy_mapping):
            algorithm(tg, mesh).validate(tg)
        random_noc_mapping(tg, mesh, seed=0).validate(tg)
        simulated_annealing_mapping(
            tg, mesh, seed=0, n_iterations=500
        ).validate(tg)

    def test_random_mapping_reproducible(self, problem):
        tg, mesh, __ = problem
        assert random_noc_mapping(tg, mesh, seed=7) == \
            random_noc_mapping(tg, mesh, seed=7)

    def test_greedy_beats_adhoc(self, problem):
        tg, mesh, model = problem
        adhoc = adhoc_mapping(tg, mesh).communication_energy(tg, model)
        greedy = greedy_mapping(tg, mesh).communication_energy(tg, model)
        assert greedy < adhoc

    def test_sa_beats_adhoc_substantially(self, problem):
        """The E3 direction: optimized mapping saves big."""
        tg, mesh, model = problem
        adhoc = adhoc_mapping(tg, mesh).communication_energy(tg, model)
        sa = simulated_annealing_mapping(
            tg, mesh, seed=1, n_iterations=8_000
        ).communication_energy(tg, model)
        assert sa < 0.85 * adhoc

    def test_sa_beats_random_by_half(self):
        """>50% saving vs an unoptimized (random) placement on MMS."""
        tg = mms_apcg()
        mesh = Mesh2D(4, 4)
        model = NocEnergyModel()
        random_cost = random_noc_mapping(
            tg, mesh, seed=3
        ).communication_energy(tg, model)
        sa_cost = simulated_annealing_mapping(
            tg, mesh, seed=1, n_iterations=10_000
        ).communication_energy(tg, model)
        assert sa_cost < 0.5 * random_cost

    def test_sa_matches_bnb_optimum_small_instance(self):
        tg = random_multimedia_apcg(6, seed=5)
        mesh = Mesh2D(3, 2)
        model = NocEnergyModel()
        optimum = branch_and_bound_mapping(tg, mesh)
        sa = simulated_annealing_mapping(tg, mesh, seed=2,
                                         n_iterations=15_000)
        assert sa.communication_energy(tg, model) == pytest.approx(
            optimum.communication_energy(tg, model), rel=0.05
        )

    def test_bnb_guard(self):
        tg = random_multimedia_apcg(12, seed=0)
        with pytest.raises(ValueError, match="branch-and-bound"):
            branch_and_bound_mapping(tg, Mesh2D(4, 4), max_tasks=10)

    def test_bnb_optimal_for_pair(self):
        tg = two_task_graph()
        mesh = Mesh2D(3, 3)
        optimum = branch_and_bound_mapping(tg, mesh)
        assert optimum.hops("a", "b") == 1  # adjacent placement

    def test_sa_cooling_validation(self, problem):
        tg, mesh, __ = problem
        with pytest.raises(ValueError):
            simulated_annealing_mapping(tg, mesh, cooling=1.5)


class TestApcgs:
    def test_video_surveillance_structure(self):
        tg = video_surveillance_apcg()
        assert len(tg) == 10
        assert tg.period == pytest.approx(0.04)
        # dominant path carries far more traffic than the UI path
        heavy = tg.dependency("camera_in", "motion_detect").bits
        light = tg.dependency("user_input", "ui_overlay").bits
        assert heavy > 50 * light

    def test_mms_structure(self):
        tg = mms_apcg()
        assert len(tg) == 16
        assert tg.total_bits() > 0
        order = tg.topological_order()
        assert order.index("demux") < order.index("idct")

    def test_random_apcg_connected_dag(self):
        tg = random_multimedia_apcg(15, seed=1)
        assert len(tg) == 15
        order = tg.topological_order()  # raises if cyclic
        assert len(order) == 15
        # every non-entry task has a parent
        entries = {t.name for t in tg.entry_tasks()}
        assert "t0" in entries

    def test_random_apcg_reproducible(self):
        a = random_multimedia_apcg(10, seed=4)
        b = random_multimedia_apcg(10, seed=4)
        assert [(d.src, d.dst, d.bits) for d in a.dependencies] == \
            [(d.src, d.dst, d.bits) for d in b.dependencies]

    def test_random_apcg_validation(self):
        with pytest.raises(ValueError):
            random_multimedia_apcg(1)
        with pytest.raises(ValueError):
            random_multimedia_apcg(5, fanout=0)


class TestBitEnergyTable:
    def test_equals_bit_energy_of_hops_for_every_tile_pair(self):
        mesh = Mesh2D(4, 4)
        energy = NocEnergyModel(switch_energy_per_bit=0.7e-12,
                                link_energy_per_bit=1.3e-12)
        table = _bit_energy_table(mesh, energy)
        tiles = list(mesh.tiles())
        assert len(table) == len(tiles) == 16
        for a in tiles:
            for b in tiles:
                assert (table[mesh.index(a)][mesh.index(b)]
                        == energy.bit_energy(mesh.hops(a, b)))
