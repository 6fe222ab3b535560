"""Vascular tree network: geometry, patch forest, filling and broad phase.

Builds the random binary vascular tree (the stand-in for the paper's
Fig. 1 capillary geometry) and walks through the services the paper
builds on p4est:

- the forest of quadtrees over the vessel patches, refined once and kept
  in Morton order,
- the RBC filling of the lumen (paper Sec. 5.1),
- the collision broad phase over the filled cells (paper Sec. 4, Fig. 3).

Run:  python examples/network_partition.py
"""
from repro.collision import candidate_object_pairs, cell_collision_mesh
from repro.config import NumericsOptions
from repro.patches import QuadForest
from repro.vessel import demo_tree_network, fill_with_rbcs


def main() -> None:
    opts = NumericsOptions(patch_quad=7)
    net = demo_tree_network(levels=3, options=opts)
    print("=== vascular tree ===")
    print(f"nodes {net.graph.number_of_nodes()}, edges "
          f"{net.graph.number_of_edges()}, terminals {len(net.terminals())}")

    patches = net.all_patches(refine=0)
    print(f"vessel patches: {len(patches)}")

    # p4est-substitute: refine the patch forest once.
    forest = QuadForest(patches)
    forest.refine()
    print(f"forest leaves after refinement: {forest.n_leaves}")

    # Fill the lumen with RBCs (paper Sec. 5.1 algorithm).
    lo, hi = net.bounding_box()
    lumen = net.lumen_volume(samples_per_axis=25)
    fill = fill_with_rbcs(net.signed_distance, (lo, hi), spacing=0.9,
                          lumen_volume=lumen, order=5, shape="rbc",
                          seed=7, max_cells=40)
    print("\n=== filling ===")
    print(f"{fill.n_cells} RBCs, volume fraction "
          f"{fill.volume_fraction * 100:.1f}%")

    meshes = [cell_collision_mesh(c, i) for i, c in enumerate(fill.cells)]
    pairs = candidate_object_pairs(meshes, [None] * len(meshes), 0.05)
    print("\n=== collision broad phase ===")
    print(f"candidate near pairs: {len(pairs)} "
          f"(all-pairs would be {fill.n_cells * (fill.n_cells - 1) // 2})")


if __name__ == "__main__":
    main()
