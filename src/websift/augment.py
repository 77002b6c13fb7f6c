"""Record augmentation from local fixtures: GeoIP ranges and WhoIs windows.

Both databases are tiny CSV fixtures loaded fully into memory; lookups
are read-only and safe to share across threads.  Augmentation is always
optional: a record without AugmentInfo flows through every later stage.
"""

from __future__ import annotations

import bisect
import datetime as dt
import io
import ipaddress
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .fixtures import FixtureFormatError, fixture_lines, fixture_rows

DEFAULT_SUFFIX_RESOURCE = "public_suffixes.txt"


@dataclass
class AugmentInfo:
    country: str | None = None
    city: str | None = None
    registered_on: dt.date | None = None
    expires_on: dt.date | None = None
    registration_days: int | None = None

    def validate(self) -> None:
        if self.registered_on is not None and self.expires_on is not None:
            days = (self.expires_on - self.registered_on).days
            if days < 0:
                raise ValueError("registration window ends before it starts")
            if self.registration_days is not None and self.registration_days != days:
                raise ValueError("registration_days disagrees with the window")

    def to_doc(self) -> dict:
        return {
            "country": self.country,
            "city": self.city,
            "registered_on": self.registered_on.isoformat() if self.registered_on else None,
            "expires_on": self.expires_on.isoformat() if self.expires_on else None,
            "registration_days": self.registration_days,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "AugmentInfo":
        reg = doc.get("registered_on")
        exp = doc.get("expires_on")
        return cls(
            country=doc.get("country"),
            city=doc.get("city"),
            registered_on=dt.date.fromisoformat(reg) if reg else None,
            expires_on=dt.date.fromisoformat(exp) if exp else None,
            registration_days=doc.get("registration_days"),
        )


# ---------------------------------------------------------------------------
# GeoIP

class GeoIpDb:
    """Sorted non-overlapping IPv4 ranges with inclusive ends."""

    def __init__(self, ranges: list[tuple[int, int, str, str]]):
        ranges = sorted(ranges)
        for (s1, e1, *_), (s2, _, *_) in zip(ranges, ranges[1:]):
            if s2 <= e1:
                raise ValueError(f"overlapping GeoIP ranges at {s2}")
        for start, end, *_ in ranges:
            if end < start:
                raise ValueError(f"inverted GeoIP range {start}..{end}")
        self._starts = [r[0] for r in ranges]
        self._ranges = ranges

    def __len__(self) -> int:
        return len(self._ranges)

    @classmethod
    def from_file(cls, path) -> "GeoIpDb":
        ranges = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, row in fixture_rows(fh, "start_ip,end_ip,country,city"):
                try:
                    start = int(ipaddress.IPv4Address(row[0]))
                    end = int(ipaddress.IPv4Address(row[1]))
                except ValueError:
                    raise FixtureFormatError(f"bad IPv4 address in {row!r}", lineno)
                ranges.append((start, end, row[2], row[3]))
        return cls(ranges)

    def lookup(self, ip_int: int) -> tuple[str, str] | None:
        idx = bisect.bisect_right(self._starts, ip_int) - 1
        if idx < 0:
            return None
        start, end, country, city = self._ranges[idx]
        if start <= ip_int <= end:
            return country, city
        return None


def geoip_lookup(ip: str, db: GeoIpDb) -> tuple[str, str] | None:
    """Country/city for an IPv4 address; IPv6 yields none by design."""
    try:
        addr = ipaddress.ip_address(ip.strip())
    except ValueError as exc:
        raise ValueError(f"malformed IP address {ip!r}") from exc
    if addr.version != 4:
        return None
    return db.lookup(int(addr))


# ---------------------------------------------------------------------------
# WhoIs

def _load_suffixes(path=None) -> frozenset[str]:
    source = Path(path) if path is not None else (
        resources.files("websift") / "data" / DEFAULT_SUFFIX_RESOURCE)
    lines = fixture_lines(io.StringIO(source.read_text(encoding="utf-8"), newline=None))
    return frozenset(line.lower().lstrip(".") for _, line in lines)


def registrable_domain(host: str, suffixes: frozenset[str]) -> str | None:
    """Reduce a host to its registrable domain (suffix plus one label)."""
    host = host.strip(".").lower()
    if not host or "." not in host:
        return None
    labels = host.split(".")
    # longest matching public suffix wins
    for i in range(1, len(labels)):
        if ".".join(labels[i:]) in suffixes:
            return ".".join(labels[i - 1:])
    if labels[-1] in suffixes and len(labels) >= 2:
        return ".".join(labels[-2:])
    return None


class WhoIsDb:
    """Registrable domain -> (registered_on, expires_on)."""

    def __init__(self, entries: dict[str, tuple[dt.date, dt.date]],
                 suffixes: frozenset[str] | None = None):
        self._entries = {k.lower(): v for k, v in entries.items()}
        self._suffixes = suffixes if suffixes is not None else _load_suffixes()

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def from_file(cls, path, suffix_path=None) -> "WhoIsDb":
        entries: dict[str, tuple[dt.date, dt.date]] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, row in fixture_rows(fh, "domain,registered_on,expires_on"):
                try:
                    registered = dt.date.fromisoformat(row[1])
                    expires = dt.date.fromisoformat(row[2])
                except ValueError:
                    raise FixtureFormatError(f"bad ISO date in {row!r}", lineno)
                entries[row[0].lower()] = (registered, expires)
        suffixes = _load_suffixes(suffix_path) if suffix_path else None
        return cls(entries, suffixes)

    def lookup(self, domain: str) -> tuple[dt.date, dt.date] | None:
        reduced = registrable_domain(domain, self._suffixes)
        if reduced is None:
            return None
        return self._entries.get(reduced)


def whois_lookup(domain: str, db: WhoIsDb) -> AugmentInfo | None:
    """Registration window for the registrable suffix of a host."""
    window = db.lookup(domain)
    if window is None:
        return None
    registered, expires = window
    return AugmentInfo(
        registered_on=registered,
        expires_on=expires,
        registration_days=(expires - registered).days,
    )


def augment_exchange(host: str, upstream_ip: str | None,
                     geodb: GeoIpDb | None, whoisdb: WhoIsDb | None) -> AugmentInfo | None:
    """Combine both fixture lookups; none when neither source knows anything."""
    windowed = whois_lookup(host, whoisdb) if whoisdb is not None and host else None
    info = windowed or AugmentInfo()
    if geodb is not None and upstream_ip:
        try:
            located = geoip_lookup(upstream_ip, geodb)
        except ValueError:
            located = None
        if located is not None:
            info.country, info.city = located
    return None if info == AugmentInfo() else info
