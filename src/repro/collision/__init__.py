"""Collision detection and constraint-based resolution (Sec. 4).

The key step that algorithmically unifies RBCs and vessel patches is a
linear triangle-mesh approximation of both (paper Sec. 4):

- :mod:`mesh` builds closed triangle meshes from spectral cell surfaces
  (2112-point upsampled sampling in the paper) and open meshes from the
  22 x 22 equispaced patch samples;
- :mod:`broadphase` finds candidate mesh pairs from space-time bounding
  boxes hashed on an implicit Morton grid (Fig. 3);
- :mod:`distance` provides vectorized point-triangle signed distances;
- :mod:`volume` computes the interference measure V(t) and its gradient
  (a penetration-volume proxy in place of the paper's exact space-time
  interference volumes);
- :mod:`lcp` solves the linear complementarity subproblem with a
  minimum-map Newton method whose linear solves use GMRES;
- :mod:`ncp` runs the sequence-of-LCPs loop (~7 per step in the paper)
  that renders a candidate state contact-free.
"""
from .mesh import CollisionMesh, cell_collision_mesh, patch_collision_mesh
from .broadphase import space_time_boxes, candidate_object_pairs
from .distance import point_triangle_closest, signed_distance_to_mesh
from .volume import ContactComponent, compute_contacts
from .lcp import solve_lcp, LCPResult
from .ncp import NCPSolver, NCPReport

__all__ = [
    "CollisionMesh",
    "cell_collision_mesh",
    "patch_collision_mesh",
    "space_time_boxes",
    "candidate_object_pairs",
    "point_triangle_closest",
    "signed_distance_to_mesh",
    "ContactComponent",
    "compute_contacts",
    "solve_lcp",
    "LCPResult",
    "NCPSolver",
    "NCPReport",
]
