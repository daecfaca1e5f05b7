"""Tests for mesh topology, routing and the bit-energy model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import (
    Mesh2D,
    NocEnergyModel,
    Tile,
    route_links,
    xy_route,
)


def tile_strategy(width=5, height=5):
    return st.builds(
        Tile,
        st.integers(min_value=0, max_value=width - 1),
        st.integers(min_value=0, max_value=height - 1),
    )


class TestMesh2D:
    def test_tile_count(self):
        assert Mesh2D(4, 3).n_tiles == 12
        assert len(list(Mesh2D(4, 3).tiles())) == 12

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Mesh2D(0, 3)

    def test_contains(self):
        mesh = Mesh2D(2, 2)
        assert mesh.contains(Tile(1, 1))
        assert not mesh.contains(Tile(2, 0))
        assert not mesh.contains(Tile(-1, 0))

    def test_index_roundtrip(self):
        mesh = Mesh2D(4, 3)
        for i, tile in enumerate(mesh.tiles()):
            assert mesh.index(tile) == i
            assert mesh.tile_at(i) == tile

    def test_index_validation(self):
        mesh = Mesh2D(2, 2)
        with pytest.raises(ValueError):
            mesh.index(Tile(5, 5))
        with pytest.raises(ValueError):
            mesh.tile_at(99)

    def test_corner_has_two_neighbors(self):
        mesh = Mesh2D(3, 3)
        assert len(mesh.neighbors(Tile(0, 0))) == 2
        assert len(mesh.neighbors(Tile(1, 1))) == 4
        assert len(mesh.neighbors(Tile(1, 0))) == 3

    def test_links_are_directed(self):
        mesh = Mesh2D(2, 2)
        links = mesh.links()
        assert (Tile(0, 0), Tile(1, 0)) in links
        assert (Tile(1, 0), Tile(0, 0)) in links
        # 2x2 mesh: 4 undirected edges -> 8 directed links
        assert len(links) == 8

    def test_hops_manhattan(self):
        mesh = Mesh2D(5, 5)
        assert mesh.hops(Tile(0, 0), Tile(0, 0)) == 0
        assert mesh.hops(Tile(0, 0), Tile(4, 4)) == 8
        assert mesh.hops(Tile(2, 3), Tile(4, 1)) == 4

    def test_hops_validates(self):
        with pytest.raises(ValueError):
            Mesh2D(2, 2).hops(Tile(0, 0), Tile(9, 9))


class TestRouting:
    def test_xy_route_shape(self):
        mesh = Mesh2D(3, 3)
        path = xy_route(mesh, Tile(0, 0), Tile(2, 1))
        assert path == [Tile(0, 0), Tile(1, 0), Tile(2, 0), Tile(2, 1)]

    def test_xy_route_west_and_north(self):
        mesh = Mesh2D(3, 3)
        path = xy_route(mesh, Tile(2, 2), Tile(0, 0))
        assert path[0] == Tile(2, 2)
        assert path[-1] == Tile(0, 0)
        assert len(path) == 5

    def test_self_route(self):
        mesh = Mesh2D(2, 2)
        assert xy_route(mesh, Tile(1, 1), Tile(1, 1)) == [Tile(1, 1)]

    @settings(max_examples=50)
    @given(tile_strategy(), tile_strategy())
    def test_xy_route_minimal_and_connected(self, src, dst):
        mesh = Mesh2D(5, 5)
        path = xy_route(mesh, src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 == mesh.hops(src, dst)
        for a, b in route_links(path):
            assert mesh.hops(a, b) == 1  # each step is one link

    def test_routes_validate_tiles(self):
        mesh = Mesh2D(2, 2)
        with pytest.raises(ValueError):
            xy_route(mesh, Tile(0, 0), Tile(5, 0))
        with pytest.raises(ValueError):
            xy_route(mesh, Tile(5, 0), Tile(0, 0))


class TestEnergyModel:
    def test_bit_energy_zero_hops(self):
        model = NocEnergyModel(switch_energy_per_bit=1.0,
                               link_energy_per_bit=2.0)
        # one router traversal, no links
        assert model.bit_energy(0) == pytest.approx(1.0)

    def test_bit_energy_formula(self):
        model = NocEnergyModel(switch_energy_per_bit=1.0,
                               link_energy_per_bit=2.0)
        # (h+1) switches + h links
        assert model.bit_energy(3) == pytest.approx(4 * 1.0 + 3 * 2.0)

    def test_transfer_energy(self):
        mesh = Mesh2D(3, 3)
        model = NocEnergyModel(switch_energy_per_bit=1e-12,
                               link_energy_per_bit=1e-12)
        energy = model.transfer_energy(mesh, Tile(0, 0), Tile(2, 0),
                                       bits=1e6)
        assert energy == pytest.approx(1e6 * 5e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            NocEnergyModel(switch_energy_per_bit=-1.0)
        model = NocEnergyModel()
        with pytest.raises(ValueError):
            model.bit_energy(-1)
        with pytest.raises(ValueError):
            model.transfer_energy(Mesh2D(2, 2), Tile(0, 0), Tile(1, 0),
                                  bits=-1.0)

    def test_monotone_in_hops(self):
        model = NocEnergyModel()
        energies = [model.bit_energy(h) for h in range(6)]
        assert energies == sorted(energies)
