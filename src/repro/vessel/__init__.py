"""Vascular geometry, boundary conditions, RBC filling, recycling.

The paper's patient-derived vessel geometries
are replaced by procedurally generated ones — networkx centerline graphs
swept into patch tubes with smooth single-segment vessels (capsules,
bent tubes) for the solver-accuracy paths. The *algorithms* of paper
Sec. 5.1 are all here: inlet/outlet parabolic boundary conditions with
zero net flux, the RBC filling algorithm (uniform seeding + growth until
contact, giving radii in [r0, 2r0]), and inlet/outlet recycling of cells.
"""
from .network import VesselNetwork, demo_bifurcation_network, demo_tree_network
from .boundary_conditions import InletOutlet, capsule_inlet_outlet_bc
from .filling import fill_with_rbcs, FillResult
from .recycling import OutletRecycler

__all__ = [
    "VesselNetwork",
    "demo_bifurcation_network",
    "demo_tree_network",
    "InletOutlet",
    "capsule_inlet_outlet_bc",
    "fill_with_rbcs",
    "FillResult",
    "OutletRecycler",
]
