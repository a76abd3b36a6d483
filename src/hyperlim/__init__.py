"""Dense k-uniform hypergraph limit toolkit.

Finite hypergraphs with an exact rational density calculus, layered vertex
partitions, step hypergraphons with measure-preserving sampling, cut-type
distances, regularity decompositions, and reproducible experiment drivers.

Top-level names are loaded lazily so that importing the package stays cheap;
a submodule is imported only when one of its names is first used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "hypergraph": [
        "DensityRecord",
        "Hypergraph",
        "VertexPartition",
        "blowup",
        "canonical_form",
        "densities",
        "density_equivalent",
        "enumerate_canonical",
        "hom",
        "injective_hom_brute",
        "is_isomorphic",
        "quotient",
    ],
    "hyperpartition": [
        "CombinatorialStructure",
        "Hyperpartition",
        "LevelMapDistribution",
        "cell_coordinate",
        "cells_union",
        "empirical_level_maps",
        "regularity_deficit",
        "structure_density",
    ],
    "hypergraphon": [
        "GeneralHypergraphon",
        "StepHypergraphon",
        "builtin_w",
        "density",
        "density_via_projection",
        "projected_value",
        "step_from_structure",
        "structure_of",
    ],
    "sampling": [
        "CoordinateSystem",
        "SampleRecord",
        "sample_vertex",
        "sample_w",
    ],
    "metrics": [
        "DistanceReport",
        "closeness",
        "d1",
        "delta1_upper",
        "delta_metric_estimate",
        "delta_w_lower",
        "hamming_density",
    ],
    "regularity": [
        "DecompositionReport",
        "refine",
    ],
}

_LOOKUP = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LOOKUP) + ["experiments", "__version__"]


def __getattr__(name):
    if name == "experiments":
        return import_module(".experiments", __name__)
    mod = _LOOKUP.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module("." + mod, __name__), name)


def __dir__():
    return __all__
