"""GeoIP range lookup and WhoIs registration windows."""

import datetime as dt
import ipaddress

import pytest
from hypothesis import given, strategies as st

from websift.augment import (
    AugmentInfo,
    GeoIpDb,
    WhoIsDb,
    _load_suffixes,
    augment_exchange,
    geoip_lookup,
    registrable_domain,
    whois_lookup,
)
from websift.fixtures import FixtureFormatError


def ip_int(text: str) -> int:
    return int(ipaddress.IPv4Address(text))


RANGES = [
    (ip_int("10.0.0.0"), ip_int("10.255.255.255"), "DE", "Berlin"),
    (ip_int("203.0.113.0"), ip_int("203.0.113.255"), "US", "Test City"),
    (ip_int("198.51.100.5"), ip_int("198.51.100.5"), "FR", "Paris"),
]


# --- GeoIP ---

def test_lookup_inside_ranges():
    db = GeoIpDb(RANGES)
    assert geoip_lookup("10.0.0.0", db) == ("DE", "Berlin")
    assert geoip_lookup("10.128.44.7", db) == ("DE", "Berlin")
    assert geoip_lookup("10.255.255.255", db) == ("DE", "Berlin")
    assert geoip_lookup("203.0.113.7", db) == ("US", "Test City")


def test_lookup_outside_ranges():
    db = GeoIpDb(RANGES)
    assert geoip_lookup("9.255.255.255", db) is None
    assert geoip_lookup("11.0.0.0", db) is None
    assert geoip_lookup("0.0.0.0", db) is None
    assert geoip_lookup("255.255.255.255", db) is None


def test_single_address_range():
    db = GeoIpDb(RANGES)
    assert geoip_lookup("198.51.100.5", db) == ("FR", "Paris")
    assert geoip_lookup("198.51.100.4", db) is None
    assert geoip_lookup("198.51.100.6", db) is None


def test_ipv6_returns_none_by_design():
    db = GeoIpDb(RANGES)
    assert geoip_lookup("2001:db8::1", db) is None


def test_malformed_ip_raises():
    db = GeoIpDb(RANGES)
    with pytest.raises(ValueError):
        geoip_lookup("999.1.1.1", db)
    with pytest.raises(ValueError):
        geoip_lookup("not-an-ip", db)


def test_overlapping_ranges_rejected():
    with pytest.raises(ValueError):
        GeoIpDb([(0, 10, "A", "a"), (10, 20, "B", "b")])
    with pytest.raises(ValueError):
        GeoIpDb([(0, 100, "A", "a"), (50, 60, "B", "b")])


def test_inverted_range_rejected():
    with pytest.raises(ValueError):
        GeoIpDb([(20, 10, "A", "a")])


def test_geoip_csv_loading(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text(
        "# start,end,country,city\n"
        "10.0.0.0,10.255.255.255,DE,Berlin\n"
        "203.0.113.0,203.0.113.255,US,Test City\n")
    db = GeoIpDb.from_file(path)
    assert len(db) == 2
    assert geoip_lookup("10.1.2.3", db) == ("DE", "Berlin")


@pytest.mark.parametrize("line,lineno", [
    ("10.0.0.0,10.0.0.9,DE", 2),
    ("banana,10.0.0.9,DE,Berlin", 2),
    ("10.0.0.0,299.0.0.9,DE,Berlin", 2),
])
def test_geoip_csv_errors(tmp_path, line, lineno):
    path = tmp_path / "geo.csv"
    path.write_text("# header\n" + line + "\n")
    with pytest.raises(FixtureFormatError) as exc:
        GeoIpDb.from_file(path)
    assert exc.value.line == lineno


def linear_lookup(ranges, ip):
    for start, end, country, city in ranges:
        if start <= ip <= end:
            return country, city
    return None


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bisect_lookup_matches_linear_scan(ip):
    db = GeoIpDb(RANGES)
    assert db.lookup(ip) == linear_lookup(RANGES, ip)


@given(st.lists(st.integers(min_value=0, max_value=2**16), min_size=2,
                max_size=12, unique=True),
       st.lists(st.integers(min_value=0, max_value=2**16), min_size=1,
                max_size=30))
def test_random_disjoint_ranges_match_linear_scan(bounds, probes):
    bounds = sorted(bounds)
    ranges = []
    for i in range(0, len(bounds) - 1, 2):
        ranges.append((bounds[i], bounds[i + 1] - 1, f"C{i}", f"c{i}"))
    ranges = [r for r in ranges if r[1] >= r[0]]
    if not ranges:
        return
    db = GeoIpDb(ranges)
    for probe in probes:
        assert db.lookup(probe) == linear_lookup(ranges, probe)


# --- registrable domains ---

SUFFIXES = frozenset(["com", "org", "co.uk", "org.uk", "test"])


@pytest.mark.parametrize("host,expected", [
    ("example.com", "example.com"),
    ("www.example.com", "example.com"),
    ("a.b.example.com", "example.com"),
    ("example.co.uk", "example.co.uk"),
    ("deep.sub.example.co.uk", "example.co.uk"),
    ("Example.COM.", "example.com"),
    ("host.test", "host.test"),
    ("com", None),
    ("localdomain", None),
    ("example.unknownsuffix", None),
])
def test_registrable_domain(host, expected):
    assert registrable_domain(host, SUFFIXES) == expected


def test_longest_suffix_wins():
    # co.uk must be preferred over a hypothetical bare uk entry
    sufs = frozenset(["uk", "co.uk"])
    assert registrable_domain("shop.example.co.uk", sufs) == "example.co.uk"


def test_default_suffix_fixture_loads():
    packaged = _load_suffixes()
    assert registrable_domain("www.example.com", packaged) == "example.com"
    assert registrable_domain("a.site.co.uk", packaged) == "site.co.uk"


# --- WhoIs ---

def make_whois():
    return WhoIsDb({
        "example.com": (dt.date(2017, 1, 1), dt.date(2017, 3, 2)),
        "old.org": (dt.date(2005, 6, 15), dt.date(2025, 6, 15)),
    }, suffixes=frozenset(["com", "org"]))


def test_whois_window_and_day_count():
    info = whois_lookup("www.example.com", make_whois())
    assert info.registered_on == dt.date(2017, 1, 1)
    assert info.expires_on == dt.date(2017, 3, 2)
    assert info.registration_days == 60  # 31 (Jan) + 28 (Feb) + 1


def test_whois_misses():
    db = make_whois()
    assert whois_lookup("unknown.com", db) is None
    assert whois_lookup("com", db) is None


def test_whois_csv_loading(tmp_path):
    path = tmp_path / "whois.csv"
    path.write_text(
        "# domain,registered,expires\n"
        "example.com,2017-01-01,2017-03-02\n")
    suffix_path = tmp_path / "suffixes.txt"
    suffix_path.write_text("com\n")
    db = WhoIsDb.from_file(path, suffix_path=suffix_path)
    assert len(db) == 1
    assert whois_lookup("sub.example.com", db).registration_days == 60


@pytest.mark.parametrize("line", [
    "example.com,2017-01-01",
    "example.com,01/01/2017,2017-03-02",
    "example.com,2017-01-01,2017-13-40",
])
def test_whois_csv_errors(tmp_path, line):
    path = tmp_path / "whois.csv"
    path.write_text(line + "\n")
    with pytest.raises(FixtureFormatError) as exc:
        WhoIsDb.from_file(path)
    assert exc.value.line == 1


@given(st.dates(min_value=dt.date(1990, 1, 1), max_value=dt.date(2030, 1, 1)),
       st.integers(min_value=0, max_value=20000))
def test_registration_days_equals_date_subtraction(registered, days):
    expires = registered + dt.timedelta(days=days)
    db = WhoIsDb({"x.com": (registered, expires)},
                 suffixes=frozenset(["com"]))
    info = whois_lookup("www.x.com", db)
    assert info.registration_days == days
    info.validate()


# --- AugmentInfo ---

def test_augment_info_validation():
    AugmentInfo(registered_on=dt.date(2017, 1, 1),
                expires_on=dt.date(2017, 3, 2),
                registration_days=60).validate()
    with pytest.raises(ValueError):
        AugmentInfo(registered_on=dt.date(2017, 3, 2),
                    expires_on=dt.date(2017, 1, 1)).validate()
    with pytest.raises(ValueError):
        AugmentInfo(registered_on=dt.date(2017, 1, 1),
                    expires_on=dt.date(2017, 3, 2),
                    registration_days=61).validate()


def test_augment_info_doc_round_trip():
    info = AugmentInfo(country="DE", city="Berlin",
                       registered_on=dt.date(2017, 1, 1),
                       expires_on=dt.date(2018, 1, 1),
                       registration_days=365)
    assert AugmentInfo.from_doc(info.to_doc()) == info
    assert AugmentInfo.from_doc({}) == AugmentInfo()


# --- combined augmentation ---

def test_augment_exchange_combines_sources():
    geo = GeoIpDb(RANGES)
    who = make_whois()
    info = augment_exchange("www.example.com", "10.1.2.3", geo, who)
    assert info.country == "DE" and info.city == "Berlin"
    assert info.registration_days == 60


def test_augment_exchange_partial_hits():
    geo = GeoIpDb(RANGES)
    who = make_whois()
    geo_only = augment_exchange("unknown.invalid", "10.1.2.3", geo, who)
    assert geo_only.country == "DE" and geo_only.registered_on is None
    whois_only = augment_exchange("example.com", "8.8.8.8", geo, who)
    assert whois_only.country is None and whois_only.registration_days == 60


def test_augment_exchange_no_hits_returns_none():
    geo = GeoIpDb(RANGES)
    who = make_whois()
    assert augment_exchange("nowhere.invalid", "8.8.8.8", geo, who) is None
    assert augment_exchange("", None, geo, who) is None
    assert augment_exchange("example.com", "10.0.0.1", None, None) is None


def test_augment_exchange_swallows_bad_ips():
    geo = GeoIpDb(RANGES)
    info = augment_exchange("example.com", "not-an-ip", geo, make_whois())
    assert info is not None and info.country is None
    assert info.registration_days == 60
