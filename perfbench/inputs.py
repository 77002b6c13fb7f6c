"""Seeded inputs for the workloads: site specs, engine fixtures, signatures.

Everything here is a pure function of the seed, so one seed always gives
the same pages, the same engine verdicts and the same expected counts.
Sizes are stratified rather than drawn, so that two seeds differ in
content and order but not in the total amount of work.
"""

from __future__ import annotations

import base64
import json
import random
from pathlib import Path

from websift.labels import GROUND_TRUTH_THRESHOLD
from websift.synthweb import (
    SIGNATURE_MARKER,
    engine_fixture_for,
    generate_site,
    render_page,
    signature_line,
)

_IDENT = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_WORDS = ("alpha", "beacon", "cobalt", "delta", "ember", "fjord", "glyph",
          "harbor", "ivory", "jasper", "kelp", "lumen", "mosaic", "nectar")


def capture_site(seed: int, pages: int) -> dict:
    """The generator's own site: ~10% malicious, ~0.5-1 KB, 25% gzip."""
    malicious = max(1, pages // 10)
    return generate_site(pages - malicious, malicious, seed)


def backlog_site(seed: int, pages: int) -> dict:
    """Generator site with ~40% of pages carrying the signature marker."""
    malicious = max(1, pages * 2 // 5)
    return generate_site(pages - malicious, malicious, seed)


def noisy_fixture(doc: dict, seed: int, share: float = 0.1) -> dict[str, list[str]]:
    """engine_fixture_for(doc), with `share` of the digests under threshold.

    The demoted digests stay flagged by the signature but settle as
    benign, which gives the forest label noise to split on.
    """
    fixture = engine_fixture_for(doc)
    rng = random.Random(f"fixture:{seed}")
    digests = sorted(fixture)
    for digest in rng.sample(digests, round(len(digests) * share)):
        fixture[digest] = fixture[digest][:rng.randrange(1, GROUND_TRUTH_THRESHOLD)]
    return fixture


# ---------------------------------------------------------------------------
# obfuscator-style script pages

def _ident(rng: random.Random) -> str:
    return "_0x" + "".join(rng.choice("0123456789abcdef") for _ in range(rng.randrange(4, 7)))


def _b64(rng: random.Random, n: int) -> str:
    return base64.b64encode(bytes(rng.randrange(256) for _ in range(n))).decode("ascii")


def _packer(rng: random.Random) -> str:
    words = "|".join(rng.choice(_WORDS) for _ in range(rng.randrange(6, 14)))
    code = ";".join(f"{i} {i + 1}={i + 2}" for i in range(0, 6, 3))
    return (
        "eval(function(p,a,c,k,e,d){e=function(c){return c.toString(36)};"
        "if(!''.replace(/^/,String)){while(c--){d[c.toString(a)]=k[c]||c.toString(a)}"
        "k=[function(e){return d[e]}];e=function(){return'\\\\w+'};c=1};"
        "while(c--){if(k[c]){p=p.replace(new RegExp('\\\\b'+e(c)+'\\\\b','g'),k[c])}}"
        f"return p}}('{code}',{rng.randrange(10, 62)},{rng.randrange(6, 14)},"
        f"'{words}'.split('|'),0,{{}}));\n"
    )


def _string_table(rng: random.Random) -> str:
    name = _ident(rng)
    items = ",".join("'" + "".join(rng.choice(_IDENT) for _ in range(rng.randrange(3, 12))) + "'"
                     for _ in range(rng.randrange(8, 24)))
    return (f"var {name}=[{items}];\n"
            f"var {name}_f=function(i){{i=i-0x0;return {name}[i];}};\n"
            f"window[{name}_f('0x{rng.randrange(16):x}')]"
            f"[{name}_f('0x{rng.randrange(16):x}')]({name}[{rng.randrange(8)}]);\n")


def _long_string(rng: random.Random) -> str:
    return f"var {_ident(rng)}=\"{_b64(rng, rng.randrange(150, 1500))}\";\n"


def _writer(rng: random.Random) -> str:
    host = f"drop-{rng.randrange(1000):03d}.invalid"
    return ("document['wri'+'te'](\"<iframe src='http://" + host +
            "/x' width='1' height='1' style='display:none'></iframe>\");\n")


def _timer(rng: random.Random) -> str:
    f = _ident(rng)
    return (f"function {f}(a,b){{var s='';for(var i=0;i<a.length;i++)"
            f"{{s+=String.fromCharCode(a.charCodeAt(i)^b);}}return s;}}\n"
            f"setTimeout(function(){{eval({f}(unescape('%{rng.randrange(16, 255):02x}"
            f"%{rng.randrange(16, 255):02x}'),{rng.randrange(1, 64)}));}},"
            f"{rng.randrange(10, 5000)});\n")


_PIECES = (_packer, _string_table, _long_string, _writer, _timer)


def _junk(rng: random.Random) -> str:
    """A fragment that fails the JS grammar: junk characters, broken syntax."""
    return rng.choice((
        "var = ;{{ ]] #@ §§ ;\n",
        "function (((( { @@ } )) =>> ;\n",
        "if (x { else ) ]] ~~ # \n",
        "☃☃ var ¶ = @x#; \n",
    ))


def script_body(rng: random.Random, size: int, hostile: bool, marked: bool) -> str:
    """An HTML page whose inline script is about `size` bytes of packed JS."""
    parts: list[str] = []
    length = 0
    while length < size:
        piece = _junk(rng) if hostile and rng.random() < 0.2 else rng.choice(_PIECES)(rng)
        parts.append(piece)
        length += len(piece)
    if hostile:
        parts.insert(rng.randrange(len(parts) + 1), _junk(rng))
    marker = (f"<!-- {SIGNATURE_MARKER.decode('ascii')} -->\n" if marked else "")
    return ("<html><head><title>s</title></head><body>\n" + marker +
            "<script>\n" + "".join(parts) + "</script>\n</body></html>")


def scripts_site(seed: int, pages: int, min_kb: int = 16, max_kb: int = 64) -> dict:
    """Script-heavy pages: sizes spread evenly over [min_kb, max_kb).

    About 10% of the scripts are hostile junk that fails the grammar, and
    every third page carries the signature marker (kind "malicious", so
    the engine fixture settles it as malicious).
    """
    rng = random.Random(f"scripts:{seed}")
    span = (max_kb - min_kb) * 1024
    sizes = [min_kb * 1024 + span * (2 * i + 1) // (2 * pages) for i in range(pages)]
    rng.shuffle(sizes)
    hostile = set(rng.sample(range(pages), max(1, pages // 10)))
    out = []
    for i, size in enumerate(sizes):
        marked = i % 3 == 0
        out.append({
            "path": f"/s{i:03d}",
            "kind": "malicious" if marked else "benign",
            "links": [],
            "gzip": False,
            "body": script_body(rng, size, i in hostile, marked),
        })
    return {"seed": seed, "pages": out}


# ---------------------------------------------------------------------------
# expectations and files

def expected_malicious(doc: dict, fixture: dict[str, list[str]]) -> int:
    """Pages whose decoded body the fixture scores at or over threshold."""
    from hashlib import sha256

    from websift.synthweb import load_site_spec

    seed = doc.get("seed", 0)
    count = 0
    for page in load_site_spec(doc).values():
        digest = sha256(render_page(page, seed)).hexdigest()
        if len(fixture.get(digest, ())) >= GROUND_TRUTH_THRESHOLD:
            count += 1
    return count


def write_inputs(workdir: Path, doc: dict, fixture: dict | None) -> dict[str, Path]:
    """Write the site spec, engine fixture and signature file; return paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {"spec": workdir / "site.json", "signatures": workdir / "signatures.txt"}
    paths["spec"].write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    paths["signatures"].write_text(signature_line() + "\n", encoding="utf-8")
    if fixture is not None:
        paths["engines"] = workdir / "engines.json"
        paths["engines"].write_text(json.dumps(fixture, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return paths

