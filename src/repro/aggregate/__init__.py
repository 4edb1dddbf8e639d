"""Single-node aggregation substrate: the paper's GROUPBY operators.

HASHAGGREGATION, PARTITIONANDAGGREGATE (Algorithm 4) and
SORTAGGREGATION over pluggable intermediate-aggregate types
(built-in floats, DECIMAL(p), repro<ScalarT,L> with/without summation
buffers), plus the Eq.-4 / depth tuning models.
"""
from .accumulators import (
    BufferedReproAcc,
    BuiltinAcc,
    DecimalAcc,
    ReproAcc,
    make_acc,
)
from .hash_agg import hash_aggregate
from .partition_agg import partition_and_aggregate
from .sort_agg import sort_aggregate
from .tuning import BSZ_MAX, CACHE_BYTES, FANOUT, choose_depth, eq4_bsz

__all__ = [
    "BuiltinAcc",
    "DecimalAcc",
    "ReproAcc",
    "BufferedReproAcc",
    "make_acc",
    "hash_aggregate",
    "partition_and_aggregate",
    "sort_aggregate",
    "choose_depth",
    "eq4_bsz",
    "CACHE_BYTES",
    "BSZ_MAX",
    "FANOUT",
]
