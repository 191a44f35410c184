"""Table 2 — analytical vector instructions per vector.

Regenerates the paper-vs-measured table (every Table-2 kernel x every
method: the paper's auto/reorg/jigsaw plus the temporal and redundancy
families, which have no paper cell) and times the full lower-and-count
pipeline."""

from repro.analysis.instruction_count import (
    PAPER_TABLE2,
    TABLE2_KERNELS,
    TABLE2_METHODS,
)
from repro.config import AMD_EPYC_7V13
from repro.experiments import table2

from _bench_utils import emit

#: the methods the paper publishes numbers for
PAPER_METHODS = ("auto", "reorg", "jigsaw")


def test_table2_counts(once):
    rows = once(table2.data, AMD_EPYC_7V13)
    emit("Table 2: instructions per vector (paper / measured)",
         table2.run(AMD_EPYC_7V13))
    assert len(rows) == len(TABLE2_KERNELS) * len(TABLE2_METHODS)
    for d in rows:
        if d["method"] in PAPER_METHODS:
            assert d["paper"] == PAPER_TABLE2[d["kernel"]][d["method"]]
        else:
            assert d["paper"] is None, d
        if d["method"] == "auto":
            assert d["measured"] == d["paper"]
        if d["method"] == "jigsaw":
            # the §3 claim: Jigsaw's per-step stores amortize to 0.5
            assert d["measured"][1] == 0.5
