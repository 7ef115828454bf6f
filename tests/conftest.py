import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import single_distorted_hex, truncated_octahedron_cell
from vemflow.dofspace import build_dof_maps
from vemflow.meshing import (
    generate_structured_cubes,
    generate_tetra_mesh,
    mesh_from_tets,
)
from vemflow.projection import build_projections


@pytest.fixture(scope="session")
def cube1():
    return generate_structured_cubes(1)


@pytest.fixture(scope="session")
def cube2():
    return generate_structured_cubes(2)


@pytest.fixture(scope="session")
def cube3():
    return generate_structured_cubes(3)


@pytest.fixture(scope="session")
def unit_tet():
    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return mesh_from_tets(nodes, np.array([[0, 1, 2, 3]]))


@pytest.fixture(scope="session")
def tets2():
    return generate_tetra_mesh(2, seed=1)


@pytest.fixture(scope="session")
def hex_cell():
    return single_distorted_hex()


@pytest.fixture(scope="session")
def voronoi_cell():
    return truncated_octahedron_cell()


_DISC_CACHE: dict = {}


@pytest.fixture(scope="session")
def disc():
    """Memoized (maps, projs, faceprojs) per (mesh, k) across the session."""

    def build(mesh, k):
        if (mesh, k) not in _DISC_CACHE:
            maps = build_dof_maps(mesh, k)
            _DISC_CACHE[mesh, k] = (maps, *build_projections(mesh, maps[0]))
        return _DISC_CACHE[mesh, k]

    return build
