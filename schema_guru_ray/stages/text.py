"""Text-analysis kernels for large-scale training-data pipelines: token
counting, quality scoring, document fingerprinting, language ID.

All are vectorized ``map_batches`` kernels over pandas/numpy (string-heavy
kernels want pandas' str engine); stateful pieces (compiled regexes,
stopword tables, n-gram profiles) live in callable-class ``__init__`` so
setup is paid once per kernel instance (SURVEY.md §2.3).
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

TOKEN_RE = re.compile(r"\S+")
WORD_RE = re.compile(r"[\w']+", re.UNICODE)
PUNCT_RE = re.compile(r"[!-/:-@\[-`{-~]")

# small per-language stopword profiles (public common-word lists)
_STOPWORDS: Dict[str, frozenset] = {
    "en": frozenset("the of and to in a is that it was for on are with as be at by this had not".split()),
    "de": frozenset("der die das und ist in den von zu mit sich des auf für nicht eine als auch es an".split()),
    "fr": frozenset("le la les de des et un une du en est que qui dans pour sur au avec ne se ce".split()),
    "es": frozenset("el la los las de y un una en es que se del por con para su al lo como más".split()),
    "it": frozenset("il la le di e un una in è che si per con del non sono da come dei più anche".split()),
    "pt": frozenset("o a os as de e um uma em é que se do da por com para não os uma mais como".split()),
}


class TokenCounter:
    """Whitespace tokens + BPE-ish word-piece count per document.

    ``n_tokens`` counts ``\\S+`` runs (matches the DuckDB oracle
    ``len(regexp_extract_all(text, '\\S+'))``); ``n_wordpieces`` is a
    BPE-like proxy: words are split into ceil(len/4) pieces, digits and
    punctuation count singly — a deterministic stand-in for a real
    tokenizer's piece count."""

    def __init__(self, column: str = "text", id_column: str = "doc_id"):
        self.column = column
        self.id_column = id_column

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch[self.column].fillna("")
        n_tokens = text.str.count(TOKEN_RE).astype("int64")
        words = text.str.findall(WORD_RE)
        n_pieces = words.map(lambda ws: sum((len(w) + 3) // 4 for w in ws)) + text.str.count(
            PUNCT_RE
        )
        return pd.DataFrame(
            {
                self.id_column: batch[self.id_column],
                "n_tokens": n_tokens,
                "n_wordpieces": n_pieces.astype("int64"),
            }
        )


class QualityScorer:
    """Heuristic document-quality features (length / punctuation / stopword /
    repetition ratios) — the standard pre-training quality-filter family."""

    def __init__(self, column: str = "text", id_column: str = "doc_id"):
        self.column = column
        self.id_column = id_column
        self.stop_en = _STOPWORDS["en"]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch[self.column].fillna("")
        n_chars = text.str.len().astype("int64")
        tokens = text.str.lower().str.findall(WORD_RE)
        n_words = tokens.map(len)
        mean_word_len = tokens.map(lambda ws: float(np.mean([len(w) for w in ws])) if ws else 0.0)
        stop_ratio = tokens.map(
            lambda ws: sum(w in self.stop_en for w in ws) / len(ws) if ws else 0.0
        )
        uniq_ratio = tokens.map(lambda ws: len(set(ws)) / len(ws) if ws else 0.0)
        n_punct = text.str.count(PUNCT_RE)
        punct_ratio = (n_punct / n_chars.clip(lower=1)).astype("float64")
        return pd.DataFrame(
            {
                self.id_column: batch[self.id_column],
                "n_chars": n_chars,
                "n_words": n_words.astype("int64"),
                "mean_word_len": mean_word_len.astype("float64"),
                "stopword_ratio": stop_ratio.astype("float64"),
                "unique_word_ratio": uniq_ratio.astype("float64"),
                "punct_ratio": punct_ratio,
            }
        )


class RepetitionScorer:
    """Gopher-style repetition signals: how concentrated a document is on
    its most frequent token / bigram. Pre-training quality filters drop
    documents whose top n-gram covers too large a fraction (e.g. top-2-gram
    > 20% in the Gopher rules); emitting raw integer counts keeps the
    output hash-exact against the SQL oracle and leaves the ratio/threshold
    choice to the filter stage.

    Output per document: ``n_tokens``, ``n_distinct``, ``top_token_n``
    (occurrences of the most frequent token), ``top_bigram_n``. Tokens are
    lowercased ``\\S+`` runs — identical to the oracle's
    ``regexp_extract_all(lower(text), '\\S+')``."""

    def __init__(self, column: str = "text", id_column: str = "doc_id"):
        self.column = column
        self.id_column = id_column

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[self.column].fillna("").str.lower().str.findall(TOKEN_RE)
        n_tokens, n_distinct, top_tok, top_big = [], [], [], []
        for ws in toks:
            n_tokens.append(len(ws))
            if ws:
                _, counts = np.unique(ws, return_counts=True)
                n_distinct.append(len(counts))
                top_tok.append(int(counts.max()))
            else:
                n_distinct.append(0)
                top_tok.append(0)
            if len(ws) >= 2:
                bgs = [a + " " + b for a, b in zip(ws, ws[1:])]
                _, bcounts = np.unique(bgs, return_counts=True)
                top_big.append(int(bcounts.max()))
            else:
                top_big.append(0)
        return pd.DataFrame(
            {
                self.id_column: batch[self.id_column].astype("int64"),
                "n_tokens": pd.Series(n_tokens, dtype="int64"),
                "n_distinct": pd.Series(n_distinct, dtype="int64"),
                "top_token_n": pd.Series(top_tok, dtype="int64"),
                "top_bigram_n": pd.Series(top_big, dtype="int64"),
            }
        )


EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
IPV4_RE = re.compile(r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b")
LONGNUM_RE = re.compile(r"\d{7,}")


class PiiScrubber:
    """PII redaction: emails → ``[EMAIL]``, dotted quads → ``[IP]``, 7+ digit
    runs → ``[NUM]``, applied in that order (an email's digits must not be
    half-eaten by the number rule). Vectorized pandas ``str.replace`` /
    ``str.count`` over compiled regexes; pure streaming map, no shuffle.
    The patterns are deliberately RE2-compatible (no backrefs/lookaround)
    so the DuckDB oracle replays them verbatim with ``regexp_replace(...,
    'g')``."""

    def __init__(self, column: str = "text", id_column: str = "doc_id"):
        self.column = column
        self.id_column = id_column

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch[self.column].fillna("")
        n_emails = text.str.count(EMAIL_RE).astype("int64")
        r1 = text.str.replace(EMAIL_RE, "[EMAIL]", regex=True)
        n_ips = r1.str.count(IPV4_RE).astype("int64")
        r2 = r1.str.replace(IPV4_RE, "[IP]", regex=True)
        n_nums = r2.str.count(LONGNUM_RE).astype("int64")
        r3 = r2.str.replace(LONGNUM_RE, "[NUM]", regex=True)
        return pd.DataFrame(
            {
                self.id_column: batch[self.id_column].astype("int64"),
                "n_emails": n_emails,
                "n_ips": n_ips,
                "n_nums": n_nums,
                "scrubbed": r3,
            }
        )


class Fingerprinter:
    """Document fingerprints.

    * ``fp_md5``: md5 of whitespace-normalized lowercase text — the exact-dup
      key; SQL-expressible (``md5(lower(regexp_replace(text,'\\s+',' ','g')))``).
    * ``fp_winnow``: winnowing fingerprint (Schleimer et al. 2003): rolling
      64-bit hashes over character 8-grams, minimum per window of 16,
      xor-folded — a compact near-dup-robust digest (hex)."""

    K = 8
    W = 16
    _MOD = (1 << 61) - 1
    _BASE = 257

    def __init__(self, column: str = "text", id_column: str = "doc_id"):
        self.column = column
        self.id_column = id_column

    @staticmethod
    def _normalize(s: str) -> str:
        return re.sub(r"\s+", " ", s).lower().strip()

    def _winnow(self, s: str) -> int:
        data = np.frombuffer(s.encode("utf-8", "ignore"), dtype=np.uint8)
        n = data.size
        if n < self.K:
            return int(hashlib.blake2b(s.encode(), digest_size=8).hexdigest(), 16)
        # rolling polynomial hashes of all k-grams (vectorized via cumulative
        # powers in float-free integer arithmetic)
        h = np.zeros(n - self.K + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):  # mod-2^64 rolling hash
            acc = np.uint64(0)
            basek = pow(self._BASE, self.K - 1, 1 << 64)
            vals = data.astype(np.uint64)
            for i in range(self.K):
                acc = acc * np.uint64(self._BASE) + vals[i]
            h[0] = acc
            b = np.uint64(self._BASE)
            bk = np.uint64(basek)
            for i in range(1, n - self.K + 1):
                acc = (acc - vals[i - 1] * bk) * b + vals[i + self.K - 1]
                h[i] = acc
        # winnow: min hash of each window, deduped
        if h.size <= self.W:
            mins = np.array([h.min()], dtype=np.uint64)
        else:
            win = np.lib.stride_tricks.sliding_window_view(h, self.W)
            mins = np.unique(win.min(axis=1))
        with np.errstate(over="ignore"):  # uint64 wrap-around is intended
            out = np.uint64(0)
            for m in mins:
                out ^= m * np.uint64(0x9E3779B97F4A7C15)
        return int(out)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch[self.column].fillna("")
        norm = text.map(self._normalize)
        fp_md5 = norm.map(lambda s: hashlib.md5(s.encode()).hexdigest())
        fp_winnow = norm.map(lambda s: format(self._winnow(s), "016x"))
        return pd.DataFrame(
            {
                self.id_column: batch[self.id_column],
                "fp_md5": fp_md5,
                "fp_winnow": fp_winnow,
            }
        )


class TextCleaner:
    """Canonical text normalization (the cleaning stage of a curation
    pipeline): NFC unicode normalization → control-character strip →
    whitespace collapse → trim. Emits the cleaned text plus its md5 and
    length so downstream exact-dedup keys are normalization-stable.
    Exactly SQL-replayable (DuckDB ``nfc_normalize`` + regexp_replace)."""

    _CTRL = re.compile(r"[\x00-\x1f\x7f]")
    _WS = re.compile(r"\s+")

    def __init__(self, column: str = "text", id_column: str = "doc_id"):
        self.column = column
        self.id_column = id_column

    def clean_one(self, s: str) -> str:
        import unicodedata

        s = unicodedata.normalize("NFC", s)
        s = self._CTRL.sub("", s)
        return self._WS.sub(" ", s).strip()

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        cleaned = batch[self.column].fillna("").map(self.clean_one)
        return pd.DataFrame(
            {
                self.id_column: batch[self.id_column],
                "clean_text": cleaned,
                "clean_md5": cleaned.map(
                    lambda s: hashlib.md5(s.encode()).hexdigest()
                ),
                "n_chars_clean": cleaned.str.len().astype("int64"),
            }
        )


# Seed text per language for the character-trigram fallback profiles —
# UDHR Article 1 (public domain) in each language. The stopword languages
# get seeds too (so the fallback can still rank them on short or
# stopword-free text); tr/nl/sw have NO stopword list and are reachable
# only through the trigram path.
_TRIGRAM_SEEDS: Dict[str, str] = {
    "en": "All human beings are born free and equal in dignity and rights. "
          "They are endowed with reason and conscience and should act "
          "towards one another in a spirit of brotherhood.",
    "de": "Alle Menschen sind frei und gleich an Würde und Rechten geboren. "
          "Sie sind mit Vernunft und Gewissen begabt und sollen einander im "
          "Geist der Brüderlichkeit begegnen.",
    "fr": "Tous les êtres humains naissent libres et égaux en dignité et en "
          "droits. Ils sont doués de raison et de conscience et doivent agir "
          "les uns envers les autres dans un esprit de fraternité.",
    "es": "Todos los seres humanos nacen libres e iguales en dignidad y "
          "derechos y, dotados como están de razón y conciencia, deben "
          "comportarse fraternalmente los unos con los otros.",
    "it": "Tutti gli esseri umani nascono liberi ed eguali in dignità e "
          "diritti. Essi sono dotati di ragione e di coscienza e devono "
          "agire gli uni verso gli altri in spirito di fratellanza.",
    "pt": "Todos os seres humanos nascem livres e iguais em dignidade e em "
          "direitos. Dotados de razão e de consciência, devem agir uns para "
          "com os outros em espírito de fraternidade.",
    "tr": "Bütün insanlar hür, haysiyet ve haklar bakımından eşit doğarlar. "
          "Akıl ve vicdana sahiptirler ve birbirlerine karşı kardeşlik "
          "zihniyeti ile hareket etmelidirler.",
    "nl": "Alle mensen worden vrij en gelijk in waardigheid en rechten "
          "geboren. Zij zijn begiftigd met verstand en geweten, en behoren "
          "zich jegens elkander in een geest van broederschap te gedragen.",
    "sw": "Watu wote wamezaliwa huru, hadhi na haki zao ni sawa. Wote "
          "wamejaliwa akili na dhamiri, hivyo yapasa watendeane kindugu.",
}

_LETTER_RE = re.compile(r"[^\W\d_]", re.UNICODE)


def _trigram_ranks(text: str, top_n: int = 300) -> Dict[str, int]:
    """Rank-ordered character trigram profile (Cavnar & Trenkle 1994,
    'N-Gram-Based Text Categorization'): lowercase, collapse non-letters to
    single spaces, count all 3-grams, keep the top_n by (count desc,
    trigram asc) and map trigram → rank."""
    s = " " + re.sub(r"[\W\d_]+", " ", (text or "").lower()).strip() + " "
    counts: Dict[str, int] = {}
    for i in range(len(s) - 2):
        t = s[i:i + 3]
        counts[t] = counts.get(t, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    return {t: r for r, (t, _) in enumerate(ordered)}


class LangId:
    """Language identification, two tiers (rows-only check: not
    SQL-expressible). Emits (id, lang_pred, lang_score).

    1. stopword-hit scoring — vectorizable, high precision on languages
       with an embedded stopword list;
    2. character-trigram fallback (Cavnar-Trenkle out-of-place distance
       against UDHR-seeded rank profiles) for text the stopword tier can't
       place — including languages with NO stopword list (tr/nl/sw).
       Profiles are built once per instance in ``__init__``.

    Acceptance: the trigram tier accepts when the best similarity clears an
    absolute floor AND beats the runner-up by a margin (random/non-language
    text scores ~0 against every profile and short same-family snippets
    lack the margin); otherwise a weak stopword hit is used, else "und".
    Text with fewer than ``min_letters`` letters stays "und"."""

    def __init__(self, column: str = "text", id_column: str = "doc_id",
                 min_letters: int = 20, stopword_accept: float = 0.15,
                 tri_floor: float = 0.05, tri_margin: float = 1.3):
        self.column = column
        self.id_column = id_column
        self.min_letters = min_letters
        self.stopword_accept = stopword_accept
        self.tri_floor = tri_floor
        self.tri_margin = tri_margin
        self.profiles = {k: v for k, v in _STOPWORDS.items()}
        self.tri_profiles = {
            lang: _trigram_ranks(seed) for lang, seed in _TRIGRAM_SEEDS.items()
        }

    def _trigram_score(self, text: str):
        letters = _LETTER_RE.findall(text)
        if len(letters) < self.min_letters:
            return "und", 0.0
        doc = _trigram_ranks(text)
        if not doc:
            return "und", 0.0
        sims = []
        for lang, prof in self.tri_profiles.items():
            max_oop = len(prof)  # out-of-place penalty for a missing trigram
            dist = sum(
                min(abs(r - prof[t]), max_oop) if t in prof else max_oop
                for t, r in doc.items()
            )
            sims.append((1.0 - dist / (len(doc) * max_oop), lang))
        sims.sort(reverse=True)
        (best_sim, best_lang), (second_sim, _) = sims[0], sims[1]
        ok = best_sim >= self.tri_floor and best_sim >= self.tri_margin * max(
            second_sim, 1e-9
        )
        return (best_lang if ok else "und"), float(best_sim)

    def _score(self, text: str):
        words = WORD_RE.findall(text.lower())
        if not words:
            return "und", 0.0
        best_lang, best = "und", 0.0
        for lang, stops in self.profiles.items():
            hits = sum(w in stops for w in words)
            score = hits / len(words)
            if score > best:
                best_lang, best = lang, score
        if best >= self.stopword_accept:  # high-confidence stopword hit
            return best_lang, float(best)
        tri_lang, tri_sim = self._trigram_score(text)
        if tri_lang != "und":
            return tri_lang, tri_sim
        if best > 0.02:  # weak stopword hit, trigram undecided
            return best_lang, float(best)
        return "und", float(max(best, tri_sim))

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        scored = batch[self.column].fillna("").map(self._score)
        return pd.DataFrame(
            {
                self.id_column: batch[self.id_column],
                "lang_pred": scored.map(lambda t: t[0]),
                "lang_score": scored.map(lambda t: t[1]),
            }
        )


def batch_levenshtein(a_list, b_list, dtype=np.int32) -> np.ndarray:
    """Unit-cost Levenshtein edit distance, VECTORIZED ACROSS THE BATCH:
    the classic DP recurrence runs as an (max_len_a × max_len_b) loop of
    O(batch)-wide numpy ops — never a per-pair Python loop — so cost is
    bounded by the TRUNCATION CAP the caller applies (pair texts should be
    pre-sliced, e.g. 48 chars), not by corpus text length. Strings are
    encoded to padded int32 codepoint matrices with DISTINCT pad sentinels
    per side (-1/-2), and each pair's answer is read at its own
    (len_a, len_b) cell — pad cells beyond it never feed into it.

    Unit semantics: ``str`` inputs → CODEPOINT-unit distance (what a human
    means by "edits"); ``bytes`` inputs → BYTE-unit distance, which is what
    SQL ``levenshtein()`` (DuckDB) computes over UTF-8 — pass
    ``s.encode("utf-8")`` for oracle parity on non-ASCII text (the two
    agree on pure ASCII)."""
    P = len(a_list)
    if P == 0:
        return np.zeros(0, dtype=dtype)

    def enc(s):
        if isinstance(s, bytes):
            return np.frombuffer(s, dtype=np.uint8).astype(np.int32)
        return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.int32)

    a_enc = [enc(s) for s in a_list]
    b_enc = [enc(s) for s in b_list]
    la = np.array([len(s) for s in a_enc], dtype=np.int64)
    lb = np.array([len(s) for s in b_enc], dtype=np.int64)
    M, N = int(la.max(initial=0)), int(lb.max(initial=0))
    A = np.full((P, M), -1, dtype=np.int32)
    B = np.full((P, N), -2, dtype=np.int32)
    for i, s in enumerate(a_enc):  # encode only: O(total units), not O(M*N)
        A[i, : len(s)] = s
    for i, s in enumerate(b_enc):
        B[i, : len(s)] = s

    prev = np.broadcast_to(np.arange(N + 1, dtype=dtype), (P, N + 1)).copy()
    cur = np.empty_like(prev)
    out = np.where(la == 0, lb, 0).astype(dtype)  # rows with empty a: dist=len(b)
    for i in range(1, M + 1):
        cur[:, 0] = i
        ai = A[:, i - 1 : i]  # (P,1)
        sub = prev[:, :-1] + (ai != B).astype(dtype)  # diagonal + cost
        dele = prev[:, 1:] + 1
        np.minimum(sub, dele, out=sub)
        # insertion has a sequential left-to-right dependency within the row:
        # resolve it with the standard running-minimum pass (np.minimum
        # accumulate over j of (candidate - j) restores the +1-per-step slope)
        cand = np.concatenate([cur[:, :1], sub], axis=1)  # (P, N+1)
        j = np.arange(N + 1, dtype=dtype)
        cur = np.minimum.accumulate(cand - j, axis=1) + j
        hit = la == i
        if hit.any():
            out[hit] = cur[hit, lb[hit]]
        prev, cur = cur, np.empty_like(prev)
    return out
