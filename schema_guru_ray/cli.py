"""CLI mirroring the reference's command surface (Parser.scala:35-185).

    python -m schema_guru_ray.cli schema INPUT [--output F] [--enum N]
        [--enum-sets name|all ...] [--no-length] [--ndjson]
        [--schema-by COLUMN_OR_JSONPATH] [--vendor V --name N --schemaver VER]
        [--errors-path DIR]
    python -m schema_guru_ray.cli validate CLIPS_DIR --out DIR
        [--files-per-partition K] [--resume]
    python -m schema_guru_ray.cli ddl INPUT [--output DIR] [--db redshift]
        [--varchar-size N] [--with-json-paths] [--raw-mode] [--force]

INPUT for `schema` is a directory of JSON files, an NDJSON file (with
--ndjson), or a parquet file/dir (typed-table derive; --json-column picks a
JSON string column). This script owns its Ray session (guarded init) —
unlike __ray_entry__.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from schema_guru_ray.state.checkpoint import FILES_PER_PARTITION

# Ray workers must import schema_guru_ray too — propagate the repo root
# when the CLI is launched from elsewhere
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO not in os.environ.get("PYTHONPATH", ""):
    os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")


def _ray_init():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _build_context(args):
    from schema_guru_ray.context import SchemaContext
    from schema_guru_ray.schema.predefined import get_enum_sets

    sets = ()
    for spec in args.enum_sets or ():
        if os.path.isfile(spec):  # user JSON file (SchemaCommand.scala:71-84)
            from schema_guru_ray.context import EnumSet

            with open(spec) as f:
                vals = json.load(f)
            sets = sets + (EnumSet(name=os.path.basename(spec), values=frozenset(vals)),)
        else:
            sets = sets + get_enum_sets(spec)
    return SchemaContext(
        enum_cardinality=args.enum,
        enum_sets=sets,
        derive_length=not args.no_length,
    )


def cmd_schema(args) -> int:
    _ray_init()
    import ray.data as rd

    from schema_guru_ray.pipelines.infer import infer_schema, infer_schema_segmented
    from schema_guru_ray.sources.json_source import error_rows, read_json_dir, read_ndjson, valid_docs

    ctx = _build_context(args)
    json_column = None
    is_parquet = args.input.endswith(".parquet") or (
        os.path.isdir(args.input)
        and any(n.endswith(".parquet") for n in os.listdir(args.input))
    )
    if getattr(args, "checkpoint_dir", None) and not is_parquet:
        # reject up front: JSON/NDJSON corpora are not partition-addressable
        # (the checkpoint ledger keys on parquet files). Without this guard
        # the corpus would be fully parsed and materialized, then the
        # parquet glob would come up empty / crash obscurely mid-run.
        print(
            "error: --checkpoint-dir requires parquet input; "
            "convert the JSON/NDJSON corpus to parquet first "
            "(resumable checkpoints are keyed on parquet partition files)",
            file=sys.stderr,
        )
        return 2
    if is_parquet:
        ds = rd.read_parquet(args.input)
        json_column = args.json_column
    else:
        raw = read_ndjson(args.input) if args.ndjson else read_json_dir(args.input)
        if args.errors_path:
            error_rows(raw).write_parquet(args.errors_path)
        # materialize: a corpus under 10 documents is derived twice by
        # infer_schema (the base64 quantity rule needs its row count), and
        # the parse pipeline must not run again for it. The reference's CLI
        # holds the parsed corpus in memory too (SchemaCommand.scala:92-104).
        ds = valid_docs(raw).materialize()
        json_column = "doc"

    if args.schema_by:
        out = infer_schema_segmented(ds, args.schema_by, ctx, json_column=json_column)
        target = args.output or "segmented_schemas"
        os.makedirs(target, exist_ok=True)
        n = 0
        used: dict = {}
        for row in out.iter_rows():
            safe = "".join(c if c.isalnum() or c in ".-" else "_" for c in row["segment"])[:30]
            safe = safe or "unmatched"
            # distinct segments can sanitize to the same filename — suffix
            # instead of silently overwriting
            used[safe] = used.get(safe, 0) + 1
            if used[safe] > 1:
                safe = f"{safe}-{used[safe]}"
            with open(os.path.join(target, f"{safe}.json"), "w") as f:
                f.write(row["schema_json"])
            n += 1
        print(f"wrote {n} segment schemas to {target}", file=sys.stderr)
        return 0

    if getattr(args, "checkpoint_dir", None):
        # resumable inference over parquet inputs (per-chunk state
        # checkpoints with lineage; reruns skip finished chunks)
        import glob

        from schema_guru_ray.pipelines.infer import infer_schema_checkpointed

        if os.path.isdir(args.input):
            files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
        else:
            files = [args.input]
        res = infer_schema_checkpointed(
            files, args.checkpoint_dir, ctx, json_column=json_column,
            log=lambda m: print(m, file=sys.stderr),
        )
        if args.vendor and args.name:
            # same self-describing wrapper as the non-checkpointed path
            from schema_guru_ray.schema.finalize import describe

            res["schema"] = describe(
                res["schema"], args.vendor, args.name, args.schemaver
            )
    else:
        res = infer_schema(
            ds, ctx, json_column=json_column,
            vendor=args.vendor, name=args.name, version=args.schemaver,
        )
    payload = json.dumps(res["schema"], indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as f:
            f.write(payload + "\n")
    else:
        print(payload)
    for w in res["warnings"]:
        print(f"warning: possibly duplicated keys: {w[0]} / {w[1]}", file=sys.stderr)
    if res["n_errors"]:
        print(f"{res['n_errors']} instances failed to derive", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    _ray_init()
    from schema_guru_ray.pipelines.validate import ValidationConfig, run_validation_checkpointed

    summary = run_validation_checkpointed(
        args.input, args.out, ValidationConfig(),
        files_per_partition=args.files_per_partition, log=lambda m: print(m, file=sys.stderr),
    )
    print(json.dumps({k: summary[k] for k in ("ran", "skipped", "config_hash")}))
    return 0


def cmd_ddl(args) -> int:
    from schema_guru_ray.schema.ddl import process_ddl

    return process_ddl(args)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="schema-guru-ray")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("schema", help="derive a JSON Schema from a corpus")
    ps.add_argument("input")
    ps.add_argument("--output")
    ps.add_argument("--enum", type=int, default=0)
    ps.add_argument("--enum-sets", nargs="*", default=[])
    ps.add_argument("--no-length", action="store_true")
    ps.add_argument("--ndjson", action="store_true")
    ps.add_argument("--schema-by")
    ps.add_argument("--json-column")
    ps.add_argument("--vendor")
    ps.add_argument("--name")
    ps.add_argument("--schemaver", default="1-0-0")
    ps.add_argument("--errors-path")
    ps.add_argument("--checkpoint-dir",
                    help="resumable inference: per-chunk state checkpoints, "
                         "content-addressed by input files (parquet inputs only)")
    ps.set_defaults(fn=cmd_schema)

    pv = sub.add_parser("validate", help="checkpointed clips validation run "
                        "(reruns skip committed chunks; appends re-run only "
                        "changed ones)")
    pv.add_argument("input")
    pv.add_argument("--out", required=True)
    pv.add_argument("--files-per-partition", type=int, default=FILES_PER_PARTITION,
                    help="input files per content-addressed checkpoint chunk")
    pv.add_argument("--resume", action="store_true")  # resume is the default behavior
    pv.set_defaults(fn=cmd_validate)

    pd_ = sub.add_parser("ddl", help="compile JSON Schemas to Redshift DDL")
    pd_.add_argument("input")
    pd_.add_argument("--output", default=".")
    pd_.add_argument("--db", default="redshift")
    pd_.add_argument("--varchar-size", type=int, default=4096)
    pd_.add_argument("--with-json-paths", action="store_true")
    pd_.add_argument("--raw-mode", action="store_true")
    pd_.add_argument("--split-product", action="store_true",
                     help="split product-typed properties into one column per type")
    pd_.add_argument("--no-header", action="store_true",
                     help="do not place header comments into output DDL")
    pd_.add_argument("--force", action="store_true")
    pd_.set_defaults(fn=cmd_ddl)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
