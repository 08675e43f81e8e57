"""Integer range encasing (IntegerRangeReduceSpec.scala:23-64), string format
suggestion (StringFormatAnnotationSpec.scala:19-60) and the base64 quantity
rule (StringPatternAnnotationSpec.scala:22-58). FIXTURES.md §B3-B5."""

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.schema import formats as fmt
from schema_guru_ray.schema.finalize import guess_range, merge_and_transform
from schema_guru_ray.schema.states import NumState, derive_value, merge

CTX = SchemaContext()

INT32_MAX = 2147483647
INT64_MAX = 9223372036854775807


class TestIntegerRanges:
    def test_zero_positive_int16(self):
        assert guess_range(0, 0) == (0, 32767)

    def test_negative_int16(self):
        assert guess_range(-1, 31000) == (-32768, 32767)

    def test_negative_int32(self):
        assert guess_range(-34000, 3000) == (-INT32_MAX - 1, INT32_MAX)

    def test_int64(self):
        assert guess_range(-34000, INT64_MAX - 1) == (-INT64_MAX - 1, INT64_MAX)

    def test_positive_int32(self):
        assert guess_range(10, 50000) == (0, INT32_MAX)

    def test_number_finalize_drops_max_zeroes_min(self):
        # Helpers.scala:197-200
        st = merge(derive_value(1.5, CTX), derive_value(99.0, CTX), CTX)
        s = merge_and_transform(st, CTX)
        assert s.get("minimum") == 0
        assert "maximum" not in s
        neg = merge(derive_value(-1.5, CTX), derive_value(99.0, CTX), CTX)
        s2 = merge_and_transform(neg, CTX)
        assert "minimum" not in s2 and "maximum" not in s2


class TestFormats:
    def test_uuid(self):
        assert fmt.suggest_format("f0e89550-7fda-11e4-bbe8-22000ad9bf74") == "uuid"

    def test_datetime(self):
        assert fmt.suggest_format("2010-01-01T12:00:00+01:00") == "date-time"

    def test_invalid_month_not_datetime(self):
        assert fmt.suggest_format("2010-13-01T12:00:00+01:00") is None

    def test_short_string_not_datetime(self):
        assert fmt.suggest_format("23") is None

    def test_ipv4(self):
        assert fmt.suggest_format("192.1.1.2") == "ipv4"

    def test_ipv6(self):
        assert fmt.suggest_format("2001:db8::8a2e:370:7334") == "ipv6"

    def test_uri(self):
        assert fmt.suggest_format("https://github.com/snowplow/schema-guru") == "uri"

    def test_plain_string(self):
        assert fmt.suggest_format("just a string") is None

    def test_out_of_range_ip_rejected(self):
        assert fmt.suggest_format("300.1.1.2") is None


class TestBase64:
    def test_big_corpus_applies(self):
        # StringPatternAnnotationSpec: quantity 10000 → pattern set
        assert fmt.suggest_pattern("aGVsbG8=", 10000) == fmt.BASE64_PATTERN

    def test_small_corpus_short_string_skipped(self):
        assert fmt.suggest_pattern("aGVsbG8=", 1) is None

    def test_long_string_always(self):
        s = "aBcDeFgH" * 9 + "c29tZSBsb25nIGJhc2U2NA=="  # 96 chars, valid b64
        assert fmt.suggest_pattern(s, 1) == fmt.BASE64_PATTERN

    def test_invalid_never(self):
        assert fmt.suggest_pattern("aVsbG=", 10000) is None

    def test_quantity_none_applies(self):
        # SchemaGenerator.scala:192-193: quantity None → case _ → apply regex
        assert fmt.suggest_pattern("aGVsbG8=", None) == fmt.BASE64_PATTERN


class TestMaxLengthCorrection:
    def test_ipv4_maxlength(self):
        # Helpers.scala:115-125
        st = derive_value("10.0.0.1", CTX)
        s = merge_and_transform(st, CTX)
        assert s["maxLength"] == 15

    def test_uri_maxlength(self):
        s = merge_and_transform(derive_value("http://a.io/b", CTX), CTX)
        assert s["maxLength"] == 8192


# --- format validators: exclusivity and the ipv4 octet regex -----------------

import ipaddress  # noqa: E402
import itertools  # noqa: E402
import re  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_FORMAT_LIKE = st.one_of(
    st.text(max_size=40),
    st.uuids().map(str),
    st.datetimes().map(lambda d: d.isoformat()),
    st.datetimes().map(lambda d: d.isoformat() + "Z"),
    st.ip_addresses().map(str),
    st.ip_addresses(v=6).map(lambda a: f"{a}%eth-0"),
    st.sampled_from(["http://", "https://", "ftp://", "mailto:"]).flatmap(
        lambda s: st.from_regex(r"[a-z0-9.:/\-T]{0,20}", fullmatch=True).map(lambda t: s + t)),
    st.from_regex(r"[0-9a-fA-F:.\-T/ ]{0,40}", fullmatch=True),
)


@given(s=_FORMAT_LIKE, tail=st.sampled_from(["", "\n", " ", "x", "-", ":", "/"]))
@settings(max_examples=1000, deadline=None)
def test_a_known_format_is_tested_by_its_own_validator(s, tail):
    """The five format families are mutually exclusive, so the first-match
    chain names format f exactly when f's own validator accepts, which is
    what lets the accumulator test a known format with one validator."""
    for v in (s, s + tail, s.upper()):
        want = fmt.suggest_format(v)
        for name in fmt.FORMAT_NAMES:
            assert fmt.FORMAT_IS[name](v) == (want == name), (v, name, want)


_OLD_IPV4_CAND = re.compile(r"^\d{1,3}(\.\d{1,3}){3}$")


def _old_is_ipv4(s):
    """The previous implementation: a digit pre-filter, then ipaddress."""
    if not _OLD_IPV4_CAND.match(s):
        return False
    try:
        ipaddress.IPv4Address(s)
        return True
    except ValueError:
        return False


def test_ipv4_regex_matches_ipaddress():
    octets = ["0", "00", "01", "1", "9", "10", "99", "100", "199", "249", "250", "255",
              "256", "260", "300", "999", "1000", "a", "", "٣", "１", " 1"]
    seen = 0
    for parts in (3, 4, 5):
        rng = itertools.product(octets, repeat=parts)
        if parts == 5:  # thin the five-part products out to a fixed stride
            rng = itertools.islice(rng, 0, None, 101)
        for combo in rng:
            s = ".".join(combo)
            for v in (s, s + "\n", s + " ", "\n" + s):
                assert fmt.is_ipv4(v) == _old_is_ipv4(v), repr(v)
                seen += 1
    assert seen >= 200_000
