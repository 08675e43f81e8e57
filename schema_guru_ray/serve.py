"""In-process equivalent of the reference's web UI upload endpoint (S5).

The reference's third entry point is a Spray HTTP server whose POST
``/upload`` accepts a multipart/form-data request of JSON files and returns
``{status, schema, errors, warning}`` (SchemaGuruRoutes.scala:35-59). This
module re-creates that surface without a serving framework:

* :func:`parse_multipart` — strict multipart/form-data parser (stdlib
  ``email``), yielding (field_name, text) parts;
* :func:`get_jsons_from_multipart` — the reference's format dispatch
  (HttpJsonGetters.scala:44-57): parts whose field name ends in ``.json``
  are single JSON instances, the ``enumCardinality`` field is an option
  not data, everything else is NDJSON split on newlines; per-part/-line
  error objects carry the file name and message
  (HttpJsonGetters.scala:60-124);
* :func:`handle_upload` — the full request → response pipeline
  (derive + merge + transform + duplicate-key warning), pure function of
  (content_type, body) so it is testable without sockets;
* :func:`handle_get` — the static web-UI router (``/`` → index page,
  ``/dist/*`` + ``/css/*`` assets, the reference's rootRoute static
  entries, SchemaGuruRoutes.scala:63-75) as a pure function;
* :func:`serve` — an optional stdlib ``http.server`` runner for real use.

The derive/merge runs in-process (the webui does the same on a detached
thread — the corpus of an upload is interactively small); the distributed
path for large corpora is ``pipelines/infer.py``.
"""

from __future__ import annotations

import json
import os
from email.message import Message
from email.parser import BytesParser
from typing import Dict, List, Optional, Tuple

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.schema.finalize import merge_and_transform
from schema_guru_ray.schema.keys import duplicate_key_pairs, extract_keys
from schema_guru_ray.schema.states import derive_with_failures


def parse_multipart(content_type: str, body: bytes) -> List[Tuple[Optional[str], str]]:
    """multipart/form-data bytes → list of (field_name, decoded text)."""
    if "multipart/form-data" not in content_type:
        raise ValueError("expected multipart/form-data content type")
    parser = BytesParser()
    msg = parser.parsebytes(
        b"Content-Type: " + content_type.encode() + b"\r\n\r\n" + body
    )
    if not msg.is_multipart():
        raise ValueError("malformed multipart body")
    parts: List[Tuple[Optional[str], str]] = []
    for part in msg.get_payload():
        assert isinstance(part, Message)
        name = part.get_param("name", header="content-disposition")
        payload = part.get_payload(decode=True)
        if payload is None:
            payload = (part.get_payload() or "").encode()
        parts.append((name, payload.decode("utf-8", errors="replace")))
    return parts


def _error_obj(name: Optional[str], error: str, message: str) -> str:
    return json.dumps(
        {"file": name or "unknown", "error": error, "message": message},
        sort_keys=True,
    )


def get_jsons_from_multipart(
    fields: List[Tuple[Optional[str], str]]
) -> Tuple[List[str], List[object]]:
    """The reference's format dispatch (HttpJsonGetters.scala:44-57):
    ``*.json`` field → one instance; ``enumCardinality`` → skipped
    (option, not data); anything else → NDJSON. Returns (errors, docs)."""
    errors: List[str] = []
    docs: List[object] = []
    for name, content in fields:
        if name == "enumCardinality":
            continue
        if name is not None and name.endswith(".json"):
            try:
                docs.append(json.loads(content))
            except ValueError as e:
                errors.append(
                    _error_obj(name, "File contents failed to parse into JSON", str(e))
                )
        else:
            for line_no, line in enumerate(content.split("\n")):
                if not line.strip():
                    continue
                try:
                    docs.append(json.loads(line))
                except ValueError as e:
                    errors.append(
                        _error_obj(
                            name,
                            f"File contents failed to parse into JSON on line {line_no}",
                            str(e),
                        )
                    )
    return errors, docs


def get_cardinality(fields: List[Tuple[Optional[str], str]]) -> int:
    """enumCardinality form field, default 0 (HttpOptionsGetter.scala:26-33)."""
    for name, content in fields:
        if name == "enumCardinality":
            try:
                return int(content.strip())
            except ValueError:
                return 0
    return 0


def handle_upload(content_type: str, body: bytes) -> Dict[str, object]:
    """POST /upload pipeline → {status, schema, errors, warning}
    (SchemaGuruRoutes.scala:40-52)."""
    fields = parse_multipart(content_type, body)
    parse_errors, docs = get_jsons_from_multipart(fields)
    # quantity = multipart FIELD count, not instance count — deliberately
    # mirroring the reference bug-for-bug (SchemaGuruRoutes.scala:43 uses
    # formData.fields.length, so an NDJSON part's many instances count as
    # one for the base64 quantity rule there too)
    ctx = SchemaContext(
        enum_cardinality=get_cardinality(fields), quantity=len(fields)
    )
    state, failed = derive_with_failures(docs, ctx)
    derive_errors = [
        _error_obj(f"instance {i}", "Cannot derive schema", str(e)) for i, e in failed
    ]
    schema = merge_and_transform(state, ctx)
    dups = sorted(duplicate_key_pairs(extract_keys(state)))
    warning = (
        {
            "message": "Possibly duplicated keys found",
            "items": [list(p) for p in dups],
        }
        if dups
        else None
    )
    return {
        "status": "processed",
        "schema": schema,
        "errors": [json.loads(e) for e in derive_errors + parse_errors],
        "warning": warning,
    }


_WEB_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "web")

#: GET route table mirroring the reference's rootRoute
#: (SchemaGuruRoutes.scala:63-75): "/" -> web/index.html, "/dist/*" and
#: "/css/*" -> static directories. Content types by extension; anything
#: outside the table (or escaping the web root) is 404.
_STATIC_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".js": "application/javascript; charset=utf-8",
    ".css": "text/css; charset=utf-8",
    ".map": "application/json",
}


def handle_get(path: str) -> Tuple[int, str, bytes]:
    """GET router as a pure function of the URL path →
    (status, content_type, body). ``/`` serves the index page;
    ``/dist/...`` and ``/css/...`` serve files under the packaged web
    root (the reference's getFromResourceDirectory); every other path —
    including any ``..`` traversal out of the web root — is 404."""
    path = path.split("?", 1)[0]
    if path in ("/", "/index.html"):
        rel = "index.html"
    elif path.startswith(("/dist/", "/css/")):
        rel = path.lstrip("/")
    else:
        return 404, "text/plain; charset=utf-8", b"not found"
    full = os.path.realpath(os.path.join(_WEB_ROOT, rel))
    if not full.startswith(os.path.realpath(_WEB_ROOT) + os.sep):
        return 404, "text/plain; charset=utf-8", b"not found"
    ctype = _STATIC_TYPES.get(os.path.splitext(full)[1])
    if ctype is None or not os.path.isfile(full):
        return 404, "text/plain; charset=utf-8", b"not found"
    with open(full, "rb") as fh:
        return 200, ctype, fh.read()


def serve(port: int = 8000):  # pragma: no cover - needs a socket
    """Minimal stdlib HTTP server exposing POST /upload plus the static
    web UI (for real use; tests call handle_upload / handle_get
    directly)."""
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            status, ctype, body = handle_get(self.path)
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            if self.path != "/upload":
                self.send_error(404)
                return
            length = int(self.headers.get("Content-Length", "0"))
            body = self.rfile.read(length)
            try:
                res = handle_upload(self.headers.get("Content-Type", ""), body)
                out = json.dumps(res).encode()
                self.send_response(200)
            except ValueError as e:
                out = json.dumps({"status": "error", "message": str(e)}).encode()
                self.send_response(400)
            self.send_header("Content-Type", "application/json")
            self.send_header("Access-Control-Allow-Origin", "*")
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)

    HTTPServer(("127.0.0.1", port), Handler).serve_forever()
