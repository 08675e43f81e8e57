"""String format / pattern suggesters.

Re-implements the annotation semantics of the reference's
``generators/SchemaGenerator.scala:158-222`` (Annotations object):

* ordered format suggesters — uuid, date-time, ipv4/ipv6, uri — first hit
  wins (chain order at SchemaGenerator.scala:202);
* base64 pattern suggester with the corpus-quantity rule: skipped when
  ``quantity < 10`` **and** ``len(s) < 32`` (SchemaGenerator.scala:191-200);
  a ``quantity`` of None applies the regex unconditionally.

Scalar entry points (:func:`suggest_format`, :func:`suggest_pattern`) are the
conformance core; :func:`format_codes` is the vectorized numpy path used by
the Arrow-column deriver (one int8 code per value, first-match semantics).
"""

from __future__ import annotations

import ipaddress
import re
from datetime import datetime
from typing import Optional

import numpy as np

# --- scalar validators -----------------------------------------------------

_UUID_RE = re.compile(
    r"^[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}$"
)

# candidate pre-filter for ISO-8601-ish date-times (validated by datetime)
_DT_CAND_RE = re.compile(r"^\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}")

# dotted quad of ASCII decimal octets 0-255 without leading zeros, which is
# what ipaddress.IPv4Address accepts (fullmatch: no trailing newline)
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4_RE = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")

# uri: scheme://host[...]; mirrors commons-validator UrlValidator default
# schemes http/https/ftp with a non-empty, dot-containing-or-localhost host
_URI_RE = re.compile(
    r"^(?:https?|ftp)://"
    r"(?:[A-Za-z0-9\-._~%]+(?::[A-Za-z0-9\-._~%]*)?@)?"  # userinfo
    r"(?:localhost|\d{1,3}(?:\.\d{1,3}){3}|[A-Za-z0-9]"
    r"(?:[A-Za-z0-9\-]*[A-Za-z0-9])?(?:\.[A-Za-z0-9](?:[A-Za-z0-9\-]*[A-Za-z0-9])?)+)"
    r"(?::\d+)?"
    r"(?:[/?#][^\s]*)?$"
)

BASE64_PATTERN = (
    "^([A-Za-z0-9+/]{4})*([A-Za-z0-9+/]{4}|[A-Za-z0-9+/]{3}=|[A-Za-z0-9+/]{2}==)$"
)
_BASE64_RE = re.compile(BASE64_PATTERN)


def is_uuid(s: str) -> bool:
    return bool(_UUID_RE.match(s))


def is_datetime(s: str) -> bool:
    """ISO-8601 date-time; strings of length <= 10 are never date-times
    (truncated-value guard, SchemaGenerator.scala:159-166)."""
    if len(s) <= 10 or not _DT_CAND_RE.match(s):
        return False
    try:
        datetime.fromisoformat(s.replace("Z", "+00:00") if s.endswith("Z") else s)
        return True
    except ValueError:
        return False


def is_ipv4(s: str) -> bool:
    return _IPV4_RE.fullmatch(s) is not None


def is_ipv6(s: str) -> bool:
    if ":" not in s:
        return False
    try:
        ipaddress.IPv6Address(s)
        return True
    except ValueError:
        return False


def is_uri(s: str) -> bool:
    return bool(_URI_RE.match(s))


def is_base64(s: str) -> bool:
    return bool(_BASE64_RE.match(s))


# first-match order: uuid, date-time, ip (v4 then v6), url
# (SchemaGenerator.scala:202 formatSuggestions)
_SUGGESTERS = (
    ("uuid", is_uuid),
    ("date-time", is_datetime),
    ("ipv4", is_ipv4),
    ("ipv6", is_ipv6),
    ("uri", is_uri),
)

FORMAT_NAMES = tuple(name for name, _ in _SUGGESTERS)
# The five families are mutually exclusive: a uuid has a "-" at index 8 and
# none at index 4, a date-time starts with four digits and a "-", an ipv4 is
# digits and dots, an ipv6 needs a ":" and admits no "-", "T" or "/", and a
# uri holds "://". So suggest_format(s) == f exactly when FORMAT_IS[f](s),
# and a path whose format is known tests each new value with one validator.
FORMAT_IS = dict(_SUGGESTERS)
# int8 codes for the vectorized path; 0 = no format
FORMAT_CODE = {name: i + 1 for i, name in enumerate(FORMAT_NAMES)}
CODE_FORMAT = {i + 1: name for i, name in enumerate(FORMAT_NAMES)}


def suggest_format(s: str) -> Optional[str]:
    """First matching format in suggester order, or None."""
    for name, fn in _SUGGESTERS:
        if fn(s):
            return name
    return None


def suggest_pattern(s: str, quantity: Optional[int]) -> Optional[str]:
    """Base64 pattern with the corpus-quantity rule
    (SchemaGenerator.scala:191-200)."""
    if quantity is not None and quantity < 10 and len(s) < 32:
        return None
    return BASE64_PATTERN if _BASE64_RE.match(s) else None


# --- vectorized path (numpy over a batch of strings) -----------------------


def format_codes(values: np.ndarray) -> np.ndarray:
    """Per-value first-match format code (int8; 0 = none) for an object/str
    ndarray. Used by the Arrow-column deriver: a column's merged ``format``
    is ``CODE_FORMAT[c]`` iff every non-null value has the same nonzero
    code (eqOrNone merge semantics, JsonSchema.scala:160-163)."""
    out = np.zeros(len(values), dtype=np.int8)
    for i, v in enumerate(values):
        f = suggest_format(v)
        if f is not None:
            out[i] = FORMAT_CODE[f]
    return out
