"""Task-adaptive multi-agent communication topologies.

Pipeline: mine per-task optimal subgraphs from a fixed agent pool,
train a joint soft-/hard-pruning graph network on the mined pairs, and
execute designed topologies with a multi-round orchestrator under token
accounting.
"""

from .graphs import (
    CommTopology,
    NodeMask,
    SupervisionPair,
    Topology,
    WeightMatrix,
    binarize,
    induce,
    lift_subgraph,
    parse_topology,
    serialize_topology,
)
from .pool import AgentPool, AgentProfile, load_default_pool, load_pool
from .embed import HashingBackend, embed_text, node_features
from .collector import CollectorConfig, SampledGraph, TaskSpec, collect_supervision
from .prunenet import (
    NetConfig,
    PruneNetParams,
    TrainConfig,
    design_topology,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .orchestrator import RunResult, run_topology
from .bench import BenchReport, make_static, run_bench

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
