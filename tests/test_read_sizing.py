"""Every read of the clips table is sized by bytes, in one place.

``sources.clips.read_clips`` picks the read task count from the file count,
the cluster CPUs and the uncompressed bytes of the selected columns (parquet
footers only): fewer files than CPUs keep Ray's own sizing; otherwise
``min(n_files, max(2 * cpus, ceil(B / target_max_block_size)))`` tasks.

* the rule's table, with the cluster CPU count patched;
* a differential: validating a corpus read in two tasks gives the same
  verdicts, violations, duplicate ids and codec verdicts as one task per
  file;
* a guard: no other module sizes a parquet read, and the validate and
  curate pipelines read clip rows through ``read_clips`` only.
"""

import ast
import pathlib
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from schema_guru_ray.sources import clips

MB = 1024**2


def _write_corpus(d, n_files: int, per_file: int, cfg=clips.ClipsConfig()):
    d.mkdir(parents=True, exist_ok=True)
    for s in range(n_files):
        cols = clips.generate_rows(np.arange(s * per_file, (s + 1) * per_file), cfg)
        pq.write_table(pa.Table.from_pydict(cols, schema=clips.CLIPS_SCHEMA),
                       str(d / f"part-{s:05d}.parquet"))
    return str(d)


@pytest.fixture
def block_128mb(monkeypatch):
    import ray.data as rd

    monkeypatch.setattr(rd.DataContext.get_current(), "target_max_block_size", 128 * MB)


@pytest.fixture
def read_calls(monkeypatch):
    """The keyword arguments of every ``ray.data.read_parquet`` call."""
    import ray.data as rd

    calls = []
    real = rd.read_parquet

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", spy)
    return calls


# (case, n_files, bytes per file, cpus, read tasks; None = Ray's sizing)
RULE = [
    ("fewer files than cpus", 3, 3.3 * MB, 4, None),
    ("24 x 3.3 MB at 1 cpu", 24, 3.3 * MB, 1, 2),
    ("24 x 3.3 MB at 4 cpus", 24, 3.3 * MB, 4, 8),
    ("24 x 3.3 MB at 16 cpus", 24, 3.3 * MB, 16, 24),
    ("8 x 150 MB at 1 cpu", 8, 150 * MB, 1, 8),
    ("62 x 150 MB at 32 cpus", 62, 150 * MB, 32, 62),
    ("one empty file", 1, 0, 1, 1),
    ("no files", 0, 0, 1, None),
]


@pytest.mark.parametrize("case,n_files,per_file,cpus,want", RULE,
                         ids=[c[0] for c in RULE])
def test_rule(case, n_files, per_file, cpus, want, block_128mb):
    assert clips.read_task_count(n_files, cpus, int(n_files * per_file)) == want


def test_projection_is_sized_by_its_own_column_chunks(tmp_path):
    path = _write_corpus(tmp_path / "c", 3, 40)
    files = clips._parquet_files(path)
    assert len(files) == 3
    per_column = Counter()
    for f in files:
        meta = pq.read_metadata(f)
        for rg in range(meta.num_row_groups):
            for c in range(meta.num_columns):
                chunk = meta.row_group(rg).column(c)
                per_column[chunk.path_in_schema] += chunk.total_uncompressed_size
    assert clips._column_bytes(files) == sum(per_column.values())
    assert clips._column_bytes(files, ["clip_id"]) == per_column["clip_id"]
    assert clips._column_bytes(files, ["clip_id", "codec"]) == (
        per_column["clip_id"] + per_column["codec"])
    assert per_column["clip_id"] < per_column["bytes"]


@pytest.mark.usefixtures("ray_session")
def test_read_clips_applies_the_rule(tmp_path, monkeypatch, read_calls):
    """The whole table of 6 files at 1 CPU reads in 2 tasks, and 2 blocks;
    8 CPUs keep Ray's sizing. With the block target at a third of the
    ``clip_id`` bytes, the full width asks one task per file and the
    ``clip_id`` projection 3."""
    import ray.data as rd

    path = _write_corpus(tmp_path / "c", 6, 40)
    monkeypatch.setattr(clips, "_cluster_cpus", lambda: 1)
    ds = clips.read_clips(path).materialize()
    assert read_calls[-1]["override_num_blocks"] == 2
    assert ds.num_blocks() == 2 and ds.count() == 240

    monkeypatch.setattr(clips, "_cluster_cpus", lambda: 8)
    assert clips.read_clips(path).count() == 240
    assert read_calls[-1]["override_num_blocks"] is None

    monkeypatch.setattr(clips, "_cluster_cpus", lambda: 1)
    ctx = rd.DataContext.get_current()
    id_bytes = clips._column_bytes(clips._parquet_files(path), ["clip_id"])
    monkeypatch.setattr(ctx, "target_max_block_size", id_bytes // 3 + 1)
    clips.read_clips(path)
    assert read_calls[-1]["override_num_blocks"] == 6
    clips.read_clips(path, columns=["clip_id"])
    assert read_calls[-1]["override_num_blocks"] == 3


@pytest.mark.usefixtures("ray_session")
def test_read_clips_of_an_empty_file(tmp_path, monkeypatch, read_calls):
    d = tmp_path / "empty"
    d.mkdir()
    pq.write_table(clips.CLIPS_SCHEMA.empty_table(), str(d / "part-0.parquet"))
    monkeypatch.setattr(clips, "_cluster_cpus", lambda: 1)
    ds = clips.read_clips(str(d))
    assert read_calls[-1]["override_num_blocks"] == 1
    assert ds.count() == 0


@pytest.mark.usefixtures("ray_session")
def test_read_clips_of_a_file_list_with_paths(tmp_path, monkeypatch):
    path = _write_corpus(tmp_path / "c", 4, 20)
    files = clips._parquet_files(path)
    monkeypatch.setattr(clips, "_cluster_cpus", lambda: 1)
    got = clips.read_clips(files[1:], include_paths=True).to_pandas()
    assert len(got) == 60
    assert sorted(set(got["path"])) == files[1:]


@pytest.mark.usefixtures("ray_session")
def test_two_task_read_validates_like_one_task_per_file(tmp_path, monkeypatch):
    """Fewer than k=800 values per codec keep every KLL exact, so the codec
    verdicts must match in every column, quantiles included."""
    import pandas as pd
    import ray.data as rd

    from schema_guru_ray.pipelines.validate import (
        codec_verdicts, duplicate_clip_ids, validate_clips, violations_dataset)

    # duplicates and every violation kind, so the comparison is not vacuous
    cfg = clips.ClipsConfig(rate_dup=0.05, rate_corrupt=0.03, rate_snr=0.03,
                            rate_transcript_mismatch=0.03, rate_sr_invalid=0.03,
                            rate_dur_mismatch=0.03, rate_ref_null_on_good=0.03)
    per_file, n_files = 60, 12
    d = _write_corpus(tmp_path / "c", n_files, per_file, cfg)
    files = clips._parquet_files(d)
    monkeypatch.setattr(clips, "_cluster_cpus", lambda: 1)

    def run(ds):
        verdicts = validate_clips(ds).materialize()
        return (verdicts, codec_verdicts(verdicts),
                violations_dataset(verdicts).to_pandas(),
                duplicate_clip_ids(verdicts).to_pandas())

    sized = clips.read_clips(d).materialize()
    per_file_read = rd.read_parquet(files, override_num_blocks=n_files).materialize()
    assert sized.num_blocks() == 2 < per_file_read.num_blocks()
    a, b = run(sized), run(per_file_read)

    def rows(frame):
        frame = frame.drop(columns=[c for c in ("violations",) if c in frame])
        return Counter(map(repr, frame.astype(object).where(frame.notna(), None)
                           .itertuples(index=False)))

    va, vb = a[0].to_pandas(), b[0].to_pandas()
    assert len(va) == n_files * per_file
    assert rows(va) == rows(vb)
    assert Counter(map(tuple, va["violations"].map(sorted))) == Counter(
        map(tuple, vb["violations"].map(sorted)))
    pd.testing.assert_frame_equal(a[1], b[1])
    assert rows(a[2]) == rows(b[2]) and len(a[2]) > 0
    assert rows(a[3]) == rows(b[3]) and len(a[3]) > 0


def test_clip_reads_are_sized_in_one_place():
    """``override_num_blocks=`` sizes a read only in sources/clips.py
    (fold.py's ``from_items`` is not a read), and the validate pipeline
    and the four checkpointed curate_clips stages read only through
    ``read_clips``."""
    pkg = pathlib.Path(clips.__file__).parents[1]
    roots = [pkg, pkg.parent / "jobs"]
    hits = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel == "sources/clips.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if (any(k.arg == "override_num_blocks" for k in node.keywords)
                        and (rel, name) != ("fold.py", "from_items")):
                    hits.append(f"{root.name}/{rel}:{node.lineno}: {name}(override_num_blocks=)")

    def parquet_reads(tree):
        return [n.lineno for n in ast.walk(tree)
                if isinstance(n, ast.Call) and getattr(n.func, "attr", "") == "read_parquet"]

    validate = (pkg / "pipelines" / "validate.py").read_text()
    hits += [f"pipelines/validate.py:{no}: read_parquet"
             for no in parquet_reads(ast.parse(validate))]
    curate = ast.parse((pkg / "pipelines" / "curate_clips.py").read_text())
    stages = {n.name: n for n in ast.walk(curate) if isinstance(n, ast.FunctionDef)
              and n.name in ("run_valid", "run_dedup", "run_drops", "run_final")}
    assert len(stages) == 4, sorted(stages)
    for name, fn in sorted(stages.items()):
        hits += [f"pipelines/curate_clips.py:{no}: read_parquet in {name}"
                 for no in parquet_reads(fn)]
    assert not hits, "\n".join(hits)
