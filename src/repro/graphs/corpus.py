"""Input-matrix corpus and selection process (paper Section III).

The paper curates 50 matrices from SuiteSparse, KONECT and Web Data
Commons with explicit criteria (square, > 1.5M nodes so the
input-vector footprint exceeds the 6 MB L2, bounded non-zeros, one
matrix per publisher group).  Without network access to those
repositories, this module provides a *synthetic corpus*: deterministic
recipes spanning the same structural categories the paper lists, at a
scale matched to the scaled platform model (see DESIGN.md Section 5).

Each entry records a ``publisher_order``: ``"native"`` keeps the
generator's natural node order (analogous to sk-2005, whose publisher
pre-applied a sophisticated ordering) while ``"scrambled"`` applies a
seeded random permutation (analogous to pld-arc, whose ORIGINAL order
behaves like RANDOM) — reproducing the paper's Observation 3 that
ORIGINAL is an ill-defined baseline.

Three profiles select different scales:

* ``"full"``  — the main evaluation corpus (large entries);
* ``"bench"`` — reduced sizes for the pytest-benchmark harness;
* ``"test"``  — tiny instances for unit/integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import CorpusError, ValidationError
from repro.graphs.generators import (
    barabasi_albert,
    dcsbm,
    erdos_renyi,
    grid_2d,
    grid_3d,
    hierarchical_blocks,
    hub_overlay,
    kmer_chain,
    planted_partition,
    rmat,
    road_network,
    star_burst,
    watts_strogatz,
)
from repro.graphs.graph import Graph
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.permute import permute_coo

PROFILES = ("full", "bench", "test")

#: Minimum node count per profile so the input-vector footprint
#: (4 bytes per node) exceeds the profile's modeled L2 capacity, the
#: paper's "> 1.5M nodes vs. 6 MB L2" criterion at reduced scale.
MIN_NODES = {"full": 8192, "bench": 2048, "test": 512}

#: Maximum non-zeros per profile (the paper's 2.5B memory-capacity cap,
#: scaled to keep simulation time sane).
MAX_NNZ = {"full": 4_000_000, "bench": 400_000, "test": 40_000}


@dataclass(frozen=True)
class CorpusEntry:
    """A named, deterministic matrix recipe.

    Attributes
    ----------
    name:
        Unique corpus identifier.
    category:
        Structural category (mirrors the paper's source domains).
    builder:
        Zero-argument callable producing the raw :class:`COOMatrix`.
    publisher_order:
        ``"native"`` or ``"scrambled"`` (see module docstring).
    directed:
        Whether the matrix should be treated as a directed graph.
    profiles:
        Profiles this entry belongs to.
    description:
        Human-readable provenance note.
    """

    name: str
    category: str
    builder: Callable[[], COOMatrix]
    publisher_order: str = "native"
    directed: bool = False
    profiles: Tuple[str, ...] = ("full",)
    description: str = ""

    def __post_init__(self) -> None:
        if self.publisher_order not in ("native", "scrambled"):
            raise ValidationError(
                f"publisher_order must be 'native' or 'scrambled', got {self.publisher_order!r}"
            )
        for profile in self.profiles:
            if profile not in PROFILES:
                raise ValidationError(f"unknown profile {profile!r} on entry {self.name}")


_REGISTRY: Dict[str, CorpusEntry] = {}


def _register(entry: CorpusEntry) -> None:
    if entry.name in _REGISTRY:
        raise ValidationError(f"duplicate corpus entry {entry.name!r}")
    _REGISTRY[entry.name] = entry


def _scramble_seed(name: str) -> int:
    """Stable per-entry seed for the publisher scrambling permutation."""
    return (hash_name(name) % (2**31)) + 7


def hash_name(name: str) -> int:
    """Deterministic (process-independent) string hash."""
    value = 2166136261
    for char in name.encode("utf-8"):
        value = ((value ^ char) * 16777619) % (2**32)
    return value


# ---------------------------------------------------------------------------
# Full-profile corpus: the main evaluation data set.
# ---------------------------------------------------------------------------

def _full_entries() -> List[CorpusEntry]:
    return [
        # --- Social networks: community structure + strong degree skew.
        CorpusEntry(
            "soc-forum", "social",
            lambda: dcsbm(16384, 64, 16.0, mu=0.35, theta_exponent=0.9, seed=101),
            publisher_order="scrambled", profiles=("full",),
            description="DC-SBM, 64 communities, moderate mixing, strong hubs",
        ),
        CorpusEntry(
            "soc-follow", "social",
            lambda: barabasi_albert(16384, 8, seed=102),
            publisher_order="scrambled", profiles=("full",),
            description="Preferential attachment (scale-free, weak community)",
        ),
        CorpusEntry(
            "soc-messages", "social",
            lambda: dcsbm(32768, 128, 12.0, mu=0.45, theta_exponent=1.0, seed=103),
            publisher_order="scrambled", profiles=("full",),
            description="DC-SBM, heavy mixing + hubs (low-insularity regime)",
        ),
        CorpusEntry(
            "soc-mega", "social",
            lambda: dcsbm(65536, 256, 10.0, mu=0.5, theta_exponent=1.1, seed=104),
            publisher_order="scrambled", profiles=("full",),
            description="Largest, hardest social instance (most mixing, most skew)",
        ),
        # --- Web / hyperlink graphs.
        CorpusEntry(
            "web-crawl-ordered", "web",
            lambda: hub_overlay(
                dcsbm(32768, 128, 10.0, mu=0.15, theta_exponent=0.6, seed=111),
                n_hubs=48, hub_degree=768, seed=112,
            ),
            publisher_order="native", profiles=("full",),
            description="Host-community web crawl; publisher kept a good order (sk-2005 analogue)",
        ),
        CorpusEntry(
            "web-crawl-raw", "web",
            lambda: hub_overlay(
                dcsbm(32768, 128, 10.0, mu=0.15, theta_exponent=0.6, seed=113),
                n_hubs=48, hub_degree=768, seed=114,
            ),
            publisher_order="scrambled", profiles=("full",),
            description="Same structure, arbitrary publisher order (pld-arc analogue)",
        ),
        CorpusEntry(
            "web-rmat", "web",
            lambda: rmat(14, 16, seed=115),
            publisher_order="scrambled", directed=True, profiles=("full",),
            description="Graph500 R-MAT scale 14 (extreme skew, weak community)",
        ),
        CorpusEntry(
            "soc-rmat", "social",
            lambda: rmat(16, 64, seed=7),
            publisher_order="scrambled", directed=True, profiles=("full",),
            description="R-MAT scale 16, Orkut-class density (~128 avg degree "
            "symmetric); the README's RABBIT detection-throughput matrix — "
            "over the profile nnz cap, so excluded by selection like the "
            "paper's capacity-limited inputs",
        ),
        # --- Knowledge databases.
        CorpusEntry(
            "know-base", "knowledge",
            lambda: dcsbm(16384, 32, 20.0, mu=0.25, theta_exponent=0.7, seed=121),
            publisher_order="scrambled", profiles=("full",),
            description="Few large topical communities with skewed entity degrees",
        ),
        # --- Circuit simulation.
        CorpusEntry(
            "circuit-hier", "circuit",
            lambda: hierarchical_blocks(16384, 10, 3.0, seed=131),
            publisher_order="native", profiles=("full",),
            description="Hierarchical netlist, publisher order follows the hierarchy",
        ),
        CorpusEntry(
            "circuit-flat", "circuit",
            lambda: hierarchical_blocks(32768, 12, 2.5, seed=132, rewire=0.05),
            publisher_order="scrambled", profiles=("full",),
            description="Hierarchical netlist with noise, flattened publisher order",
        ),
        # --- CFD / electromagnetics meshes.
        CorpusEntry(
            "mesh2d-cfd", "mesh",
            lambda: grid_2d(128, 128),
            publisher_order="native", profiles=("full",),
            description="2-D stencil mesh in natural row-major order",
        ),
        CorpusEntry(
            "mesh2d-remap", "mesh",
            lambda: grid_2d(192, 192),
            publisher_order="scrambled", profiles=("full",),
            description="2-D stencil mesh, node order lost by the publisher",
        ),
        CorpusEntry(
            "mesh3d-em", "mesh",
            lambda: grid_3d(32, 32, 32),
            publisher_order="native", profiles=("full",),
            description="3-D electromagnetics stencil, natural order",
        ),
        CorpusEntry(
            "mesh3d-large", "mesh",
            lambda: grid_3d(48, 40, 34),
            publisher_order="scrambled", profiles=("full",),
            description="3-D stencil, scrambled",
        ),
        # --- Road networks.
        CorpusEntry(
            "road-city", "road",
            lambda: road_network(128, 128, seed=141),
            publisher_order="native", profiles=("full",),
            description="Perturbed planar grid, natural (spatial) order",
        ),
        CorpusEntry(
            "road-state", "road",
            lambda: road_network(181, 181, seed=142),
            publisher_order="scrambled", profiles=("full",),
            description="Larger road network, arbitrary node IDs",
        ),
        # --- Protein k-mer / DNA electrophoresis.
        CorpusEntry(
            "kmer-protein", "kmer",
            lambda: kmer_chain(32768, branch_prob=0.02, seed=151),
            publisher_order="native", profiles=("full",),
            description="Long chains with light branching, chain-major order",
        ),
        CorpusEntry(
            "kmer-dna", "kmer",
            lambda: kmer_chain(65536, branch_prob=0.01, n_chains=16, seed=152),
            publisher_order="scrambled", profiles=("full",),
            description="DNA electrophoresis model, scrambled",
        ),
        # --- Non-linear optimization (arrow structure: mesh + dense rows).
        CorpusEntry(
            "optim-arrow", "optimization",
            lambda: hub_overlay(grid_2d(128, 128), n_hubs=32, hub_degree=512, seed=161),
            publisher_order="native", profiles=("full",),
            description="KKT-like system: local stencil plus dense coupling rows",
        ),
        # --- Strong planted community structure (insularity >= 0.95 regime).
        CorpusEntry(
            "comm-tight", "community",
            lambda: planted_partition(16384, 256, 16.0, mu=0.04, seed=171),
            publisher_order="scrambled", profiles=("full",),
            description="256 tight communities, 4% mixing",
        ),
        CorpusEntry(
            "comm-many", "community",
            lambda: planted_partition(32768, 512, 8.0, mu=0.08, seed=172),
            publisher_order="scrambled", profiles=("full",),
            description="512 small communities, 8% mixing",
        ),
        CorpusEntry(
            "comm-skewed", "community",
            lambda: dcsbm(16384, 128, 14.0, mu=0.10, theta_exponent=0.8, seed=173),
            publisher_order="scrambled", profiles=("full",),
            description="Tight communities but hubby degrees",
        ),
        # --- Traffic-trace anomaly (mawi analogue): giant community.
        CorpusEntry(
            "traffic-trace", "traffic",
            lambda: star_burst(16384, 4, leaf_links=1, seed=181),
            publisher_order="scrambled", profiles=("full",),
            description="Few giant stars; detection yields near-whole-matrix communities (mawi analogue)",
        ),
        # --- Small-world.
        CorpusEntry(
            "sw-ring", "smallworld",
            lambda: watts_strogatz(16384, 12, 0.05, seed=191),
            publisher_order="native", profiles=("full",),
            description="Small-world, mostly-ring structure, natural order",
        ),
        CorpusEntry(
            "sw-rewired", "smallworld",
            lambda: watts_strogatz(16384, 8, 0.3, seed=192),
            publisher_order="scrambled", profiles=("full",),
            description="Heavily rewired small-world",
        ),
        # --- Unstructured baselines.
        CorpusEntry(
            "rand-sparse", "random",
            lambda: erdos_renyi(16384, 8.0, seed=201),
            publisher_order="native", profiles=("full",),
            description="Erdős–Rényi (no exploitable structure)",
        ),
        CorpusEntry(
            "rand-dense", "random",
            lambda: erdos_renyi(8192, 24.0, seed=202),
            publisher_order="scrambled", profiles=("full",),
            description="Denser Erdős–Rényi",
        ),
    ]


# ---------------------------------------------------------------------------
# Bench-profile corpus: same categories, reduced scale.
# ---------------------------------------------------------------------------

def _bench_entries() -> List[CorpusEntry]:
    return [
        CorpusEntry(
            "bench-social", "social",
            lambda: dcsbm(4096, 32, 12.0, mu=0.35, theta_exponent=0.9, seed=301),
            publisher_order="scrambled", profiles=("bench",),
        ),
        CorpusEntry(
            "bench-scalefree", "social",
            lambda: barabasi_albert(4096, 6, seed=302),
            publisher_order="scrambled", profiles=("bench",),
        ),
        CorpusEntry(
            "bench-web", "web",
            lambda: hub_overlay(
                dcsbm(4096, 32, 8.0, mu=0.15, theta_exponent=0.6, seed=303),
                n_hubs=16, hub_degree=192, seed=304,
            ),
            publisher_order="scrambled", profiles=("bench",),
        ),
        CorpusEntry(
            "bench-rmat", "web",
            lambda: rmat(12, 8, seed=305),
            publisher_order="scrambled", directed=True, profiles=("bench",),
        ),
        CorpusEntry(
            "bench-circuit", "circuit",
            lambda: hierarchical_blocks(4096, 8, 3.0, seed=306),
            publisher_order="scrambled", profiles=("bench",),
        ),
        CorpusEntry(
            "bench-mesh", "mesh",
            lambda: grid_2d(64, 64),
            publisher_order="scrambled", profiles=("bench",),
        ),
        CorpusEntry(
            "bench-road", "road",
            lambda: road_network(64, 64, seed=307),
            publisher_order="scrambled", profiles=("bench",),
        ),
        CorpusEntry(
            "bench-kmer", "kmer",
            lambda: kmer_chain(4096, branch_prob=0.02, seed=308),
            publisher_order="scrambled", profiles=("bench",),
        ),
        CorpusEntry(
            "bench-comm", "community",
            lambda: planted_partition(4096, 64, 12.0, mu=0.05, seed=309),
            publisher_order="scrambled", profiles=("bench",),
        ),
        CorpusEntry(
            "bench-traffic", "traffic",
            lambda: star_burst(4096, 4, leaf_links=1, seed=310),
            publisher_order="scrambled", profiles=("bench",),
        ),
        CorpusEntry(
            "bench-smallworld", "smallworld",
            lambda: watts_strogatz(4096, 8, 0.1, seed=311),
            publisher_order="native", profiles=("bench",),
        ),
        CorpusEntry(
            "bench-random", "random",
            lambda: erdos_renyi(4096, 8.0, seed=312),
            publisher_order="native", profiles=("bench",),
        ),
    ]


# ---------------------------------------------------------------------------
# Test-profile corpus: tiny instances for unit/integration tests.
# ---------------------------------------------------------------------------

def _test_entries() -> List[CorpusEntry]:
    return [
        CorpusEntry(
            "test-comm", "community",
            lambda: planted_partition(512, 16, 8.0, mu=0.05, seed=401),
            publisher_order="scrambled", profiles=("test",),
        ),
        CorpusEntry(
            "test-social", "social",
            lambda: dcsbm(512, 8, 8.0, mu=0.4, theta_exponent=0.9, seed=402),
            publisher_order="scrambled", profiles=("test",),
        ),
        CorpusEntry(
            "test-mesh", "mesh",
            lambda: grid_2d(24, 24),
            publisher_order="scrambled", profiles=("test",),
        ),
        CorpusEntry(
            "test-kmer", "kmer",
            lambda: kmer_chain(512, branch_prob=0.03, n_chains=4, seed=403),
            publisher_order="native", profiles=("test",),
        ),
        CorpusEntry(
            "test-rmat", "web",
            lambda: rmat(9, 8, seed=404),
            publisher_order="scrambled", directed=True, profiles=("test",),
        ),
        CorpusEntry(
            "test-random", "random",
            lambda: erdos_renyi(512, 6.0, seed=405),
            publisher_order="native", profiles=("test",),
        ),
    ]


for _entry in _full_entries() + _bench_entries() + _test_entries():
    _register(_entry)


# ---------------------------------------------------------------------------
# Public accessors.
# ---------------------------------------------------------------------------

def corpus_entries(profile: str = "full") -> List[CorpusEntry]:
    """All entries belonging to ``profile``, in registration order."""
    if profile not in PROFILES:
        raise ValidationError(f"unknown profile {profile!r}; valid: {PROFILES}")
    return [entry for entry in _REGISTRY.values() if profile in entry.profiles]


def corpus_names(profile: str = "full") -> List[str]:
    return [entry.name for entry in corpus_entries(profile)]


def get_entry(name: str) -> CorpusEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CorpusError(f"unknown corpus entry {name!r}") from None


@lru_cache(maxsize=None)
def load_matrix(name: str) -> COOMatrix:
    """Build (and cache) a corpus matrix with its publisher order applied."""
    entry = get_entry(name)
    matrix = entry.builder()
    if entry.publisher_order == "scrambled":
        rng = np.random.default_rng(_scramble_seed(name))
        perm = rng.permutation(matrix.n_rows).astype(np.int64)
        matrix = permute_coo(matrix, perm)
    return matrix


def load_graph(name: str) -> Graph:
    """Corpus matrix as a :class:`Graph` (CSR-backed)."""
    entry = get_entry(name)
    return Graph(coo_to_csr(load_matrix(name)), directed=entry.directed)


@dataclass
class SelectionRecord:
    """Outcome of applying the Section III criteria to one entry."""

    name: str
    category: str
    n_nodes: int
    nnz: int
    avg_degree: float
    selected: bool
    reason: str = ""


def selection_report(profile: str = "full") -> List[SelectionRecord]:
    """Apply the scaled Section III selection criteria to a profile.

    Mirrors the paper's process: square (always true by construction),
    node count large enough that the input vector exceeds the modeled
    L2, and a non-zero cap.  Returns one record per entry so the
    process is auditable rather than implicit.
    """
    min_nodes = MIN_NODES[profile]
    max_nnz = MAX_NNZ[profile]
    records = []
    for entry in corpus_entries(profile):
        matrix = load_matrix(entry.name)
        selected = True
        reason = ""
        if matrix.n_rows < min_nodes:
            selected = False
            reason = f"fewer than {min_nodes} nodes (input vector fits in L2)"
        elif matrix.nnz > max_nnz:
            selected = False
            reason = f"more than {max_nnz} non-zeros (exceeds memory budget)"
        records.append(
            SelectionRecord(
                name=entry.name,
                category=entry.category,
                n_nodes=matrix.n_rows,
                nnz=matrix.nnz,
                avg_degree=matrix.nnz / max(1, matrix.n_rows),
                selected=selected,
                reason=reason,
            )
        )
    return records
