"""The document-table read behind the dedup and curation queries is sized
from its input: at least 8 blocks, and never fewer than the read produced
(a fixed ``repartition(8)`` capped every large corpus at 8 tasks)."""

import os
import re

import pyarrow as pa
import pyarrow.parquet as pq

import schema_guru_ray.pipelines.queries as queries
from schema_guru_ray.pipelines.queries._common import _read, _read_documents


def _write_docs(sf_dir, n_files, rows=20):
    path = os.path.join(sf_dir, "documents.parquet")
    os.makedirs(path)
    for f in range(n_files):
        ids = list(range(f * rows, (f + 1) * rows))
        # ~1.3 MB per file: Ray coalesces reads below its 1 MiB minimum block
        text = [f"doc {i} " + "x" * 64_000 for i in ids]
        pq.write_table(pa.table({"doc_id": ids, "text": text}),
                       os.path.join(path, f"part-{f:03d}.parquet"))


def test_block_count_never_drops_below_the_input(ray_session, tmp_path):
    for n_files in (1, 12):
        sf_dir = str(tmp_path / f"sf{n_files}")
        _write_docs(sf_dir, n_files)
        n_in = _read(sf_dir, "documents", ["doc_id", "text"]).materialize().num_blocks()
        ds = _read_documents(sf_dir).materialize()
        assert ds.num_blocks() >= max(8, n_in)
        assert sorted(ds.to_pandas()["doc_id"]) == list(range(20 * n_files))
    assert n_in > 8  # the multi-file read really exceeded the old cap


def test_no_fixed_repartition_in_queries():
    qdir = os.path.dirname(queries.__file__)
    for name in os.listdir(qdir):
        if name.endswith(".py"):
            with open(os.path.join(qdir, name)) as f:
                assert not re.search(r"\.repartition\(\d+\)", f.read()), name
