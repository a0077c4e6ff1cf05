"""Social-network analysis toolkit for multi-participant chat logs.

Builds a directed weighted mention network from IRC-style logs and computes
hub/authority scores, bow-tie and A/B/C/D skeletons, cliques, blocks and
cutpoints, lambda sets, and regular-equivalence role cases.
"""

__version__ = "0.1.0"

from .ingest import (
    ChatCorpus,
    ChatMessage,
    Roster,
    build_roster,
    parse_corpus,
    parse_line,
)
from .graph import (
    GraphStats,
    MentionGraph,
    UndirectedView,
    extract_network,
    mutual_ties_view,
    read_graph_csv,
    stats,
    to_undirected,
    write_graph_csv,
)
from .centrality import HitsScores, degree_centrality, hits
from .skeleton import (
    BowTiePartition,
    LinkMatrix,
    SkeletonPartition,
    abcd_skeleton,
    bowtie,
    link_matrix,
    strongly_connected_components,
)
from .cohesion import (
    CliqueReport,
    CoMembershipMatrix,
    EgoNetwork,
    clique_comembership,
    clique_participation,
    ego_network,
    maximal_cliques,
)
from .connectivity import (
    BlockReport,
    GomoryHuTree,
    LambdaHierarchy,
    articulation_points_and_blocks,
    edge_connectivity,
    gomory_hu,
    lambda_sets,
    top_links,
)
from .equivalence import (
    EquivalenceMatrix,
    RoleCaseReport,
    classify_roles,
    high_eq_tie_fraction,
    rege,
)
from .report import (
    AnalysisConfig,
    AnalysisReport,
    PipelineError,
    export_graph,
    run_pipeline,
)
