"""Deterministic NoC routing algorithms.

XY (dimension-ordered) routing is the standard deadlock-free choice for
2D meshes, and the one every NoC model here uses.
"""

from __future__ import annotations

from repro.noc.topology import Mesh2D, Tile

__all__ = ["xy_route", "route_links"]


def xy_route(mesh: Mesh2D, src: Tile, dst: Tile) -> list[Tile]:
    """Dimension-ordered route: travel X first, then Y.

    Returns the full tile sequence including both endpoints.

    Examples
    --------
    >>> mesh = Mesh2D(3, 3)
    >>> xy_route(mesh, Tile(0, 0), Tile(2, 1))
    [(0,0), (1,0), (2,0), (2,1)]
    """
    for tile in (src, dst):
        if not mesh.contains(tile):
            raise ValueError(f"{tile} outside {mesh}")
    path = [src]
    x, y = src.x, src.y
    step_x = 1 if dst.x > x else -1
    while x != dst.x:
        x += step_x
        path.append(Tile(x, y))
    step_y = 1 if dst.y > y else -1
    while y != dst.y:
        y += step_y
        path.append(Tile(x, y))
    return path


def route_links(path: list[Tile]) -> list[tuple[Tile, Tile]]:
    """The directed links a tile path traverses."""
    return list(zip(path, path[1:]))
