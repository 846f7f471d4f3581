"""tatekit: exact lattice calculus on Tate vector spaces k((t))^n.

Layers, bottom up: exact scalars and echelon linear algebra; Laurent
polynomial/series arithmetic and automorphisms; lattices in the Sato
Grassmannian; the K_0 index of automorphisms with its combinatorial lattice
family; graded determinant lines, torsor sections, and the central
extension whose commutator computes tame symbols; finite simplicial
machinery (nerves, subdivision, Ex, admissible trees).
"""

from .fields import GF, QQ, FieldCtx, Scalar, is_prime
from .linalg import (
    Matrix,
    Subspace,
    det,
    quotient_dim,
    subspace_contains,
)
from .laurent import (
    Automorphism,
    LaurentMatrix,
    LaurentPoly,
    TruncSeries,
    det_laurent,
    parse_laurent,
    parse_laurent_matrix,
)
from .lattice import (
    Lattice,
    LatticeChain,
    TateSpace,
    act,
    join,
    lattice_from_json,
    leq,
    meet,
    quotient_dim_lattices,
    std_lattice,
)
from .index_map import (
    AutChain,
    LatticeFamily,
    build_family,
    check_additivity,
    euler0,
    family_passes,
    index0,
    index0_with,
    index_simplex,
    verify_family,
)
from .detline import (
    DeterminantTheory,
    DimensionTheory,
    ExtElement,
    GradedLine,
    cocycle_check,
    commutator,
    det_theory_coherence,
    ext_inv,
    ext_mul,
    omega,
    rel_det,
    tame_symbol,
)
from .simplicial import (
    AdmissibleDiagram,
    BasedPoset,
    FinPoset,
    FinSimplicialSet,
    FramedPoset,
    OrientedGraph,
    b_interval,
    ex_poset,
    is_admissible_tree,
    k0_decompose,
    k0_reconstruct,
    nerve,
    order_graph,
    preindex_k0,
    sd_ordinal,
    star_frame,
    to_dot,
)

__version__ = "0.1.0"
