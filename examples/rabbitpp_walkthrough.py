"""Figure 5 walkthrough: the two RABBIT++ modifications on a toy graph.

Reconstructs the paper's worked example flow on the 9-node,
3-community graph of Figure 1: detect communities, identify insular
and hub nodes, apply the modifications, and print the adjacency
matrices so the structural effect is visible in ASCII.
"""

import numpy as np

from repro.community import detect
from repro.graphs.graph import Graph
from repro.metrics.insularity import insular_mask, insularity
from repro.reorder.rabbitpp import HubPolicy, RabbitPlusPlus
from repro.reorder.rabbit import RabbitOrder
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.permute import permute_symmetric

EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),   # community A (clique of 4)
    (4, 5), (4, 6), (5, 6),                            # community B (triangle)
    (7, 8),                                            # community C (pair)
    (3, 4), (6, 7),                                    # inter-community edges
]


def build_graph() -> Graph:
    u = np.asarray([a for a, _ in EDGES])
    v = np.asarray([b for _, b in EDGES])
    coo = COOMatrix(9, 9, np.concatenate([u, v]), np.concatenate([v, u]))
    # Scramble the IDs so the reordering has something to undo.
    rng = np.random.default_rng(7)
    perm = rng.permutation(9)
    from repro.sparse.permute import permute_coo

    return Graph(coo_to_csr(permute_coo(coo, perm)))


def ascii_matrix(csr) -> str:
    dense = csr.to_dense() != 0
    lines = []
    for row in dense:
        lines.append(" ".join("#" if cell else "." for cell in row))
    return "\n".join(lines)


def main() -> None:
    graph = build_graph()
    print("scrambled adjacency (the 'published' matrix):")
    print(ascii_matrix(graph.adjacency))
    print()

    detection = detect(graph)  # the three orderings below reuse it
    print(f"RABBIT detects {detection.assignment.n_communities} communities; "
          f"insularity = {insularity(graph, detection.assignment):.3f}")
    insular = insular_mask(graph, detection.assignment)
    degrees = np.asarray(graph.in_degrees())
    hubs = degrees > graph.average_degree()
    print(f"insular nodes: {np.flatnonzero(insular).tolist()}")
    print(f"hub nodes (degree > {graph.average_degree():.2f}): "
          f"{np.flatnonzero(hubs).tolist()}")
    print()

    steps = [
        ("RABBIT (dendrogram DFS)", RabbitOrder()),
        ("+ insular grouping", RabbitPlusPlus(hub_policy=HubPolicy.NONE)),
        ("+ hub grouping  (= RABBIT++)", RabbitPlusPlus()),
    ]
    for label, technique in steps:
        permutation = technique.compute(graph)
        reordered = permute_symmetric(graph.adjacency, permutation)
        print(f"--- {label} ---")
        print(ascii_matrix(reordered))
        print()

    print("Each step concentrates the non-zeros toward the diagonal:")
    print("communities become contiguous blocks, the insular block gets")
    print("perfect locality, and the few boundary/hub rows are packed")
    print("together instead of scattered.")


if __name__ == "__main__":
    main()
