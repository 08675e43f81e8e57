"""Ray Data schema-inference pipelines over the driver testdata (typed
tables + the events.props JSON column), and the Arrow-batch deriver's
equivalence with the row-wise JSON derive path."""

import json

import pyarrow as pa
import pytest

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.schema.finalize import merge_and_transform
from schema_guru_ray.schema.states import derive, derive_value, merge, ZERO
from schema_guru_ray.stages.derive import derive_arrow_batch


class TestArrowDeriveEquivalence:
    """derive_arrow_batch must equal the row-wise JSON derive fold on the
    same logical values (the vectorized kernel is a pure optimization)."""

    def _check(self, rows, ctx=SchemaContext()):
        tab = pa.Table.from_pylist(rows)
        vec = merge_and_transform(derive_arrow_batch(tab, ctx), ctx)
        row = merge_and_transform(derive(rows, ctx), ctx)
        assert vec == row, f"\nvec: {vec}\nrow: {row}"

    def test_ints_strings(self):
        self._check([{"a": 1, "b": "xy"}, {"a": -40000, "b": "longer"}])

    def test_formats(self):
        self._check(
            [
                {"u": "f0e89550-7fda-11e4-bbe8-22000ad9bf74", "ip": "10.0.0.1"},
                {"u": "aaaa9550-7fda-11e4-bbe8-22000ad9bf74", "ip": "192.168.1.1"},
            ]
        )

    def test_mixed_format_dropped(self):
        self._check([{"s": "10.0.0.1"}, {"s": "not an ip"}])

    def test_nulls_make_product(self):
        self._check([{"x": 5}, {"x": None}])

    def test_floats(self):
        self._check([{"x": 1.5}, {"x": -2.5}])

    def test_enums(self):
        self._check(
            [{"c": "AB"}, {"c": "AC"}, {"c": "AB"}],
            SchemaContext(enum_cardinality=5),
        )

    def test_enum_cap(self):
        self._check(
            [{"c": "A"}, {"c": "B"}, {"c": "C"}],
            SchemaContext(enum_cardinality=2),
        )

    def test_lists(self):
        self._check([{"l": [1, 2]}, {"l": [3]}])

    def test_base64_quantity(self):
        self._check(
            [{"b": "aGVsbG8="}, {"b": "d29ybGQh"}],
            SchemaContext(quantity=10000),
        )
        self._check(
            [{"b": "aGVsbG8="}, {"b": "d29ybGQh"}],
            SchemaContext(quantity=2),
        )


@pytest.mark.usefixtures("ray_session")
class TestInferPipelines:
    def test_typed_table(self, sf_dir):
        import ray.data as rd

        from schema_guru_ray.pipelines.infer import infer_schema

        ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet")
        res = infer_schema(ds, SchemaContext(enum_cardinality=5))
        sch = res["schema"]
        assert sch["type"] == "object"
        props = sch["properties"]
        assert props["l_returnflag"]["type"] == "string"
        assert set(props["l_returnflag"]["enum"]) == {"A", "N", "R"}
        assert props["l_quantity"]["type"] == "number"
        assert props["l_shipdate"]["format"] == "date-time"
        assert res["n_errors"] == 0
        assert res["n_rows"] > 0

    def test_json_column(self, sf_dir):
        import ray.data as rd

        from schema_guru_ray.pipelines.infer import infer_schema

        ds = rd.read_parquet(f"{sf_dir}/events.parquet")
        res = infer_schema(ds, SchemaContext(), json_column="props")
        assert res["schema"]["type"] == "object"
        assert res["n_errors"] == 0

    def test_segmented(self, sf_dir):
        import ray.data as rd

        from schema_guru_ray.pipelines.infer import infer_schema_segmented

        ds = rd.read_parquet(f"{sf_dir}/events.parquet")
        out = infer_schema_segmented(ds, "event_type", SchemaContext()).to_pandas()
        assert set(out["segment"]) == {"click", "error", "purchase", "signup", "view"}
        assert out["n_rows"].sum() == ds.count()
        for s in out["schema_json"]:
            assert json.loads(s)["type"] == "object"

    def test_segmented_by_jsonpath(self, ray_session):
        """FIXTURES.md §B9: mixed instances keyed by $.event → per-key
        schemas; non-string/absent key → 'unmatched' bucket."""
        import json as _json

        import ray.data as rd

        from schema_guru_ray.pipelines.infer import infer_schema_segmented

        docs = [
            {"event": "Purchased an Item", "price": 10},
            {"event": "Purchased an Item", "price": 20},
            {"event": "Posted a Comment", "body": "hi"},
            {"no_event": True},
            {"event": None},
        ]
        ds = rd.from_items([{"doc": _json.dumps(d)} for d in docs])
        out = infer_schema_segmented(ds, "$.event", json_column="doc").to_pandas()
        by = dict(zip(out["segment"], out["n_rows"]))
        # key normalization: 30-char slice, [^a-zA-Z0-9.-] → _
        assert by == {"Purchased_an_Item": 2, "Posted_a_Comment": 1, "unmatched": 2}
        purchased = _json.loads(
            out[out["segment"] == "Purchased_an_Item"]["schema_json"].iloc[0]
        )
        assert purchased["properties"]["price"]["maximum"] == 32767

    def test_jsonpath_unit(self):
        from schema_guru_ray.schema.jsonpath import UNMATCHED, normalize_key, query, segment_key

        doc = {"a": {"b": [{"c": 7}]}, "event": "Sign-Up Done!"}
        assert query("$.a.b[0].c", doc) == 7
        assert query("$['a'].b", doc) == [{"c": 7}]
        assert query("$.missing", doc) is None
        assert segment_key("$.event", doc) == "Sign-Up_Done_"
        assert normalize_key("x" * 50) == "x" * 30
        assert normalize_key("") == UNMATCHED
        assert normalize_key(None) == UNMATCHED

    def test_pipeline_equals_local_on_random_corpora(self, ray_session):
        """Distributed derive-then-merge must equal the sequential local
        fold for arbitrary JSON corpora (hypothesis-generated, executed
        through the REAL Ray pipeline at an awkward batch size)."""
        import json as _json

        import ray.data as rd
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from schema_guru_ray.pipelines.infer import infer_schema
        from schema_guru_ray.schema.finalize import merge_and_transform
        from schema_guru_ray.schema.states import derive

        scalars = st.one_of(
            st.text(max_size=12),
            st.integers(min_value=-(2**40), max_value=2**40),
            st.booleans(),
            st.none(),
            st.uuids().map(str),
        )
        docs = st.lists(
            st.dictionaries(st.text(min_size=1, max_size=6), scalars, max_size=4),
            min_size=1,
            max_size=12,
        )

        @given(docs)
        @settings(
            max_examples=10, deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def check(corpus):
            ctx = SchemaContext(enum_cardinality=3, quantity=len(corpus))
            local = merge_and_transform(derive(corpus, ctx), ctx)
            ds = rd.from_items([{"doc": _json.dumps(d)} for d in corpus]).repartition(3)
            dist = infer_schema(ds, ctx, json_column="doc", batch_size=2)["schema"]
            assert dist == local

        check()

    def test_merge_independent_of_batch_size(self, sf_dir):
        """Partial-aggregation correctness: different batch sizes (different
        merge groupings) must yield identical schemas."""
        import ray.data as rd

        from schema_guru_ray.pipelines.infer import infer_schema

        ds = rd.read_parquet(f"{sf_dir}/orders.parquet")
        ctx = SchemaContext(enum_cardinality=8)
        a = infer_schema(ds, ctx, batch_size=64)["schema"]
        b = infer_schema(ds, ctx, batch_size=4096)["schema"]
        assert a == b

    def test_fold_states_tree_bounded(self, sf_dir, monkeypatch):
        """Tree-merge level: with forced tiny batches (many per-batch
        states) the driver folds only ≤ FANIN shard survivors, and the
        result is identical for any fan-in (associative merge)."""
        import ray.data as rd

        from schema_guru_ray import fold
        from schema_guru_ray.pipelines.infer import fold_states
        from schema_guru_ray.schema.finalize import merge_and_transform
        from schema_guru_ray.stages.derive import StateBatcher

        ctx = SchemaContext(enum_cardinality=8, quantity=1000)
        ds = rd.read_parquet(f"{sf_dir}/orders.parquet")
        states = ds.map_batches(
            StateBatcher(ctx), batch_format="pyarrow", batch_size=32
        )
        assert states.count() > 8  # genuinely many partial states
        monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 8)
        monkeypatch.setattr(fold, "FANIN", 4)
        small = fold_states(states, ctx)
        monkeypatch.setattr(fold, "FANIN", 512)
        big = fold_states(states, ctx)
        assert merge_and_transform(small["state"], ctx) == merge_and_transform(
            big["state"], ctx
        )
        assert small["n_rows"] == big["n_rows"] == ds.count()

    def test_checkpointed_infer_resumes(self, sf_dir, tmp_path):
        """Checkpointed inference: fresh run == resumed run byte-for-byte;
        resume skips every finished partition; a config change invalidates
        the checkpoints."""
        import glob
        import json as _json

        from schema_guru_ray.pipelines.infer import infer_schema_checkpointed

        files = sorted(glob.glob(f"{sf_dir}/orders.parquet"))
        ctx = SchemaContext(enum_cardinality=8, quantity=1500)
        out = tmp_path / "ckpt"
        r1 = infer_schema_checkpointed(files, str(out), ctx, files_per_partition=1)
        assert r1["manifest"]["ran"] >= 1 and r1["manifest"]["skipped"] == 0
        r2 = infer_schema_checkpointed(files, str(out), ctx, files_per_partition=1)
        assert r2["manifest"]["ran"] == 0  # full checkpoint hit
        assert r2["manifest"]["skipped"] == r1["manifest"]["ran"]
        assert _json.dumps(r1["schema"], sort_keys=True) == _json.dumps(
            r2["schema"], sort_keys=True
        )
        assert r1["n_rows"] == r2["n_rows"]
        # config change → checkpoints invalid → everything reruns
        r3 = infer_schema_checkpointed(
            files, str(out), SchemaContext(enum_cardinality=2, quantity=1500),
            files_per_partition=1,
        )
        assert r3["manifest"]["ran"] == r1["manifest"]["ran"]

    def test_checkpointed_matches_direct(self, sf_dir, tmp_path):
        import glob
        import json as _json

        from schema_guru_ray.pipelines.infer import infer_schema, infer_schema_checkpointed

        files = sorted(glob.glob(f"{sf_dir}/events.parquet"))
        ctx = SchemaContext(enum_cardinality=8, quantity=1000)
        import ray.data as rd

        direct = infer_schema(rd.read_parquet(files), ctx)["schema"]
        ck = infer_schema_checkpointed(files, str(tmp_path / "ck2"), ctx)["schema"]
        assert _json.dumps(direct, sort_keys=True) == _json.dumps(ck, sort_keys=True)

    def test_checkpointed_ignores_stale_partitions(self, sf_dir, tmp_path):
        """Review finding: the final merge must fold EXACTLY this run's
        partition set — stale partition dirs from a previous run with a
        different input set must not leak into the result."""
        import pyarrow.parquet as pq

        from schema_guru_ray.pipelines.infer import infer_schema_checkpointed

        tab = pq.read_table(f"{sf_dir}/orders.parquet")
        f1, f2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
        pq.write_table(tab.slice(0, 400), f1)
        pq.write_table(tab.slice(400, 400), f2)
        out = tmp_path / "ck3"
        ctx = SchemaContext(enum_cardinality=4)
        both = infer_schema_checkpointed([f1, f2], str(out), ctx, files_per_partition=1)
        assert both["n_rows"] == 800
        # rerun over HALF the inputs into the same dir: the second chunk
        # from the previous run is stale and must be ignored
        one = infer_schema_checkpointed([f1], str(out), ctx, files_per_partition=1)
        assert one["n_rows"] == 400

    def _order_files(self, sf_dir, tmp_path, n):
        import pyarrow.parquet as pq

        tab = pq.read_table(f"{sf_dir}/orders.parquet")
        files = []
        for i in range(n):
            f = str(tmp_path / f"orders{i}.parquet")
            pq.write_table(tab.slice(i * 200, 200), f)
            files.append(f)
        return files

    def test_checkpointed_subset_rerun_matches_fresh(self, sf_dir, tmp_path):
        """A rerun over a strict subset of the inputs into the same dir
        answers exactly like a fresh run over that subset."""
        from schema_guru_ray.pipelines.infer import infer_schema_checkpointed

        files = self._order_files(sf_dir, tmp_path, 4)
        ctx = SchemaContext(enum_cardinality=4)
        out = str(tmp_path / "ck")
        infer_schema_checkpointed(files, out, ctx, files_per_partition=1)
        sub = infer_schema_checkpointed(files[:2], out, ctx, files_per_partition=1)
        fresh = infer_schema_checkpointed(files[:2], str(tmp_path / "fresh"), ctx,
                                          files_per_partition=1)
        for k in ("schema", "warnings", "n_errors", "n_rows"):
            assert json.dumps(sub[k], sort_keys=True) == json.dumps(fresh[k], sort_keys=True)

    def test_checkpointed_append_reruns_at_most_two_chunks(self, sf_dir, tmp_path):
        from schema_guru_ray.pipelines.infer import infer_schema_checkpointed

        files = self._order_files(sf_dir, tmp_path, 4)
        ctx = SchemaContext(enum_cardinality=4)
        out = str(tmp_path / "ck")
        first = infer_schema_checkpointed(files[:3], out, ctx, files_per_partition=2)
        grown = infer_schema_checkpointed(files, out, ctx, files_per_partition=2)
        assert first["manifest"]["ran"] == 2
        assert grown["manifest"]["ran"] <= 2 and grown["manifest"]["skipped"] == 1
        assert grown["n_rows"] == 800

    def test_checkpointed_quantity_is_corpus_global(self, sf_dir, tmp_path):
        """Corpus-size-dependent rules must see the TOTAL row count: the
        checkpointed schema equals the direct one regardless of the
        chunking (per-partition quantity would diverge)."""
        import json as _json

        import pyarrow.parquet as pq

        from schema_guru_ray.pipelines.infer import infer_schema, infer_schema_checkpointed

        tab = pq.read_table(f"{sf_dir}/documents.parquet").select(["doc_id", "lang"])
        files = []
        for i in range(4):
            f = str(tmp_path / f"part{i}.parquet")
            pq.write_table(tab.slice(i * 100, 100), f)
            files.append(f)
        import ray.data as rd

        ctx = SchemaContext(enum_cardinality=4)
        direct = infer_schema(rd.read_parquet(files), ctx)["schema"]
        ck = infer_schema_checkpointed(
            files, str(tmp_path / "ck4"), ctx, files_per_partition=1
        )["schema"]
        assert _json.dumps(direct, sort_keys=True) == _json.dumps(ck, sort_keys=True)


@pytest.mark.usefixtures("ray_session")
class TestCorpusSizeFromTheFold:
    """infer_schema reads the corpus size from its own fold instead of a
    separate count: an unset quantity derives as any size >= 10 does, and a
    corpus under 10 rows is derived again with its row count."""

    # short base64-like strings: the pattern applies at 10 rows or more only
    # (StringPatternAnnotationSpec.scala:22-58)
    B64 = ["aGVsbG8=", "d29ybGQh", "YWJjZA==", "Zm9vYmFy"]

    @pytest.mark.parametrize("n", [1, 9, 10, 11])
    def test_schema_equals_explicit_quantity(self, n):
        import ray.data as rd

        from schema_guru_ray.pipelines.infer import infer_schema
        from schema_guru_ray.schema.formats import BASE64_PATTERN

        rows = [{"b": self.B64[i % 4], "k": i,
                 "doc": json.dumps({"b": self.B64[i % 4], "n": [self.B64[0]]})}
                for i in range(n)]
        ds = rd.from_items(rows)
        for cols, json_column in ((["b", "k"], None), (["doc"], "doc")):
            part = ds.select_columns(cols)
            unset = infer_schema(part, SchemaContext(), json_column=json_column)
            given = infer_schema(part, SchemaContext(quantity=n), json_column=json_column)
            assert unset == given
            assert unset["n_rows"] == n
            b = unset["schema"]["properties"]["b"]
            assert b.get("pattern") == (BASE64_PATTERN if n >= 10 else None)

    def test_projected_read_runs_one_execution(self, tmp_path, monkeypatch):
        import pyarrow.parquet as pq
        import ray.data as rd
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        from schema_guru_ray.pipelines.infer import infer_schema

        pq.write_table(pa.table({"a": list(range(40)), "s": ["x"] * 40,
                                 "doc": ['{"k": 1}'] * 40}), tmp_path / "t.parquet")
        calls, real = [], StreamingExecutor.execute

        def execute(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(StreamingExecutor, "execute", execute)
        ds = rd.read_parquet(str(tmp_path / "t.parquet"))
        res = infer_schema(ds.select_columns(["a", "s"]), SchemaContext())
        assert res["n_rows"] == 40 and len(calls) == 1
        del calls[:]
        res = infer_schema(ds.select_columns(["doc"]), SchemaContext(), json_column="doc")
        assert res["n_rows"] == 40 and len(calls) == 1
