"""Exact workbench for tournament homomorphism densities."""

from .digraphs import (
    Digraph,
    QuantumDigraph,
    RootedDigraph,
    Tournament,
    disjoint_union,
    induced_subdigraph,
    is_acyclic,
    random_tournament,
    transitive_tournament,
)
from .homcount import (
    count_hom,
    count_hom_bruteforce,
    count_hom_rooted,
    density,
    eval_quantum,
    iter_homs,
)

__all__ = [
    "Digraph",
    "Tournament",
    "RootedDigraph",
    "QuantumDigraph",
    "transitive_tournament",
    "random_tournament",
    "disjoint_union",
    "induced_subdigraph",
    "is_acyclic",
    "count_hom",
    "count_hom_bruteforce",
    "count_hom_rooted",
    "density",
    "eval_quantum",
    "iter_homs",
]
