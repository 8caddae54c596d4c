"""Golden CLI deck: exit code, stdout and stderr of every command, pinned.

``cli_golden.json`` holds, per command of :func:`golden_deck`, the sha256
of ``json.dumps([exit code, stdout, stderr])`` as the CLI printed it when
the file was recorded.  The test replays the deck in-process and requires
every hash to match, so any byte of output that moves is caught.

To record the file again after a deliberate change of output::

    PYTHONPATH=src python tests/test_cli_golden.py

Before it overwrites the file, it prints the argv of every entry whose
hash changed (or that is added or dropped) and their count, so that a
re-recording can be checked against the change that caused it.

Usage and help text come from argparse, which wraps them to the terminal
width and words them differently across Python versions; both are pinned
in the file (``columns``, ``python``).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import sys

import pytest

from latticecf.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden.json"
COLUMNS = "80"


def _pairs():
    return [(p, q) for p in range(2, 30) for q in range(1, p) if math.gcd(p, q) == 1]


def _per_pair(p: int, q: int) -> list[tuple[str, ...]]:
    """Every command and flag of the CLI on the cone type p/q."""
    x = f"{p}/{q}"
    e_terms = f"{p % 5 + 1},{q},{p}"
    hj_terms = f"{q + 1},{p % 4 + 2},2"
    cycle = f"{q + 2},{p % 3 + 2},2"
    return [
        ("cf", "involute", x),
        ("cf", "involute", x, "--terms"),
        ("cf", "convert", "--to", "hj", e_terms),
        ("cf", "convert", "--to", "e", hj_terms),
        ("cf", "staircase", hj_terms),
        ("cone", "type", "1", str(q), str(-p), str(q)),
        ("cone", "type", str(q), str(p), "1", "0"),
        ("cone", "polygon", x),
        ("cone", "polygon", x, "--oracle"),
        ("cone", "dual", x),
        ("cone", "duality-report", x),
        ("sing", "resolve", x),
        ("sing", "resolve", x, "--format", "dot"),
        ("sing", "embdim", x),
        ("sing", "embdim", x, "--oracle"),
        ("sing", "blowup", x),
        ("lens", "compare", str(p), str(q), str(p), str(pow(q, -1, p))),
        ("lens", "compare", str(p), str(q), str(p), str(p - q), "--reverse"),
        ("lens", "reverse", str(p), str(q)),
        ("cusp", "monodromy", cycle),
        ("cusp", "trace", cycle),
        ("cusp", "dual", cycle),
        ("curve", "resolve", str(p), str(q)),
        ("curve", "resolve", str(p), str(q), "--format", "dot", "--oracle"),
        ("curve", "resolve", str(p), str(q), "--format", "json", "--oracle"),
    ]


ZIGZAG_FLAGS = [
    (), ("--format", "ascii"), ("--format", "svg"), ("--format", "json"),
    ("--read", "hj"), ("--read", "hj-dual"), ("--read", "e"), ("--read", "e-dual"),
]


def _big() -> list[tuple[str, ...]]:
    """200-bit cone types and one integer past CPython's 4300-digit str limit."""
    rng = random.Random("golden:200-bit")
    out = []
    for _ in range(3):
        while True:
            p = rng.getrandbits(200) | 1 << 199
            q = rng.randrange(2, p)
            if math.gcd(p, q) == 1:
                break
        x = f"{p}/{q}"
        out += [
            ("cf", "expand", "--kind", "e", x),
            ("cf", "expand", "--kind", "hj", x),
            ("cf", "involute", x, "--terms"),
            ("cone", "polygon", x),
            ("cone", "dual", x),
            ("cone", "duality-report", x),
            ("zigzag", x),
            ("zigzag", x, "--format", "json"),
            ("zigzag", x, "--read", "hj-dual"),
            ("sing", "resolve", x, "--format", "dot"),
            ("sing", "embdim", x),
            ("sing", "blowup", x),
            ("lens", "compare", str(p), str(q), str(p), str(pow(q, -1, p))),
            ("lens", "reverse", str(p), str(q)),
            ("cusp", "trace", f"{p},{q},2"),
            ("cusp", "monodromy", f"{q},2,{p}"),
            ("curve", "resolve", str(p), str(q)),
        ]
    out.append(("cf", "expand", "--kind", "e", "1" + "0" * 5000 + "/7"))
    return out


USAGE_ERRORS = [
    (),
    ("nonsense",),
    ("cf",),
    ("cf", "expand", "3/2"),
    ("cf", "expand", "--kind", "x", "3/2"),
    ("cf", "expand", "--kind", "e", "a/b"),
    ("cf", "expand", "--kind", "e", "1/0"),
    ("cf", "expand", "--kind", "e", "3/2", "extra"),
    ("cf", "convert", "--to", "hj", "1,x"),
    ("cf", "convert", "--to", "hj", ""),
    ("cf", "staircase", "2,,3"),
    ("cone", "type", "1", "0", "x", "1"),
    ("cone", "polygon"),
    ("zigzag", "3/2", "--format", "png"),
    ("zigzag", "3/2", "--read", "f"),
    ("zigzag", "3/x"),
    ("sing", "embdim"),
    ("sing", "resolve", "3/2", "--format", "svg"),
    ("lens", "compare", "5", "2", "5"),
    ("lens", "reverse", "5", "two"),
    ("cusp", "trace", "2,,3"),
    ("cusp", "square", "3"),
    ("curve", "resolve", "5"),
    ("curve", "resolve", "5", "2", "--format", "svg"),
    ("--help",),
    ("cf", "--help"),
    ("cf", "expand", "-h"),
    ("zigzag", "-h"),
    ("curve", "resolve", "--help"),
]

DOMAIN_ERRORS = [
    ("cf", "involute", "1/2"),
    ("cf", "involute", "1"),
    ("cf", "convert", "--to", "e", "2,1"),
    ("cf", "convert", "--to", "e", "1,3"),
    ("cf", "convert", "--to", "hj", "1,0"),
    ("cf", "convert", "--to", "hj", "3,1,0"),
    ("cf", "staircase", "2,1"),
    ("cone", "type", "1", "0", "2", "0"),
    ("cone", "type", "0", "0", "1", "1"),
    ("cone", "polygon", "1"),
    ("cone", "polygon", "-3/2"),
    ("cone", "dual", "1"),
    ("cone", "duality-report", "1"),
    ("cone", "polygon", "1/0"),
    ("cone", "dual", "1/0"),
    ("cone", "duality-report", "1/0"),
    ("zigzag", "1/2"),
    ("zigzag", "1"),
    ("sing", "embdim", "1/2"),
    ("sing", "resolve", "-5/3"),
    ("sing", "blowup", "2/3"),
    ("lens", "compare", "4", "2", "4", "1"),
    ("lens", "reverse", "1", "0"),
    ("cusp", "trace", "2,2"),
    ("cusp", "trace", "4"),
    ("cusp", "monodromy", "1,3"),
    ("cusp", "dual", "3,1,0"),
    ("curve", "resolve", "5", "1"),
    ("curve", "resolve", "4", "2"),
    ("curve", "resolve", "2", "5"),
]


HELP = [
    ("cone", "--help"),
    ("sing", "--help"),
    ("lens", "--help"),
    ("cusp", "--help"),
    ("curve", "--help"),
    ("cf", "convert", "--help"),
    ("cf", "involute", "--help"),
    ("cf", "staircase", "--help"),
    ("cone", "type", "--help"),
    ("cone", "polygon", "--help"),
    ("cone", "dual", "--help"),
    ("cone", "duality-report", "--help"),
    ("sing", "resolve", "--help"),
    ("sing", "embdim", "--help"),
    ("sing", "blowup", "--help"),
    ("lens", "compare", "--help"),
    ("lens", "reverse", "--help"),
    ("cusp", "monodromy", "--help"),
    ("cusp", "trace", "--help"),
    ("cusp", "dual", "--help"),
]


def golden_deck() -> list[tuple[str, ...]]:
    """Three commands per coprime pair 1 <= q < p < 30, rotating through every
    command and flag, then 200-bit inputs, usage errors, domain errors and
    the help text of every group and command; each command once."""
    deck = []
    for i, (p, q) in enumerate(_pairs()):
        x = f"{p}/{q}"
        commands = _per_pair(p, q)
        deck.append(("cf", "expand", "--kind", "e" if i % 2 else "hj", x))
        deck.append(("zigzag", x, *ZIGZAG_FLAGS[i % len(ZIGZAG_FLAGS)]))
        deck.append(commands[i % len(commands)])
    return list(dict.fromkeys(deck + _big() + USAGE_ERRORS + DOMAIN_ERRORS + HELP))


def outcome_hash(argv) -> str:
    """sha256 of ``[exit code, stdout, stderr]`` of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def _python() -> str:
    return "%d.%d" % sys.version_info[:2]


def _load():
    return json.loads(GOLDEN.read_text())


def test_deck_covers_every_group_and_is_the_recorded_one():
    deck = golden_deck()
    assert len(deck) >= 300 and len(set(deck)) == len(deck)
    assert {argv[0] for argv in deck if argv} >= {"cf", "cone", "zigzag", "sing", "lens", "cusp", "curve"}
    assert [tuple(argv) for argv, _ in _load()["deck"]] == deck


def test_golden_deck_replays_byte_identical(monkeypatch):
    golden = _load()
    if golden["python"] != _python():
        pytest.skip(f"recorded under Python {golden['python']}; argparse words usage errors per version")
    monkeypatch.setenv("COLUMNS", golden["columns"])
    changed = [argv for argv, digest in golden["deck"] if outcome_hash(argv) != digest]
    assert changed == []


def changed_entries(old, new) -> list[str]:
    """One line per command whose hash differs between two decks of
    ``(argv, hash)`` pairs, then a count: what a re-recording changes."""
    before = {tuple(argv): digest for argv, digest in old}
    lines = []
    for argv, digest in new:
        if before.get(tuple(argv)) != digest:
            kind = "changed" if tuple(argv) in before else "added"
            lines.append(f"{kind} {json.dumps(list(argv))}")
    after = {tuple(argv) for argv, _ in new}
    lines += [f"dropped {json.dumps(list(argv))}" for argv in before if argv not in after]
    return lines + [f"{len(lines)} entries differ from {GOLDEN.name} ({len(new)} in the new deck)"]


def test_changed_entries_names_each_difference():
    old = [(["a"], "1"), (["b"], "2"), (["c"], "3")]
    new = [(["a"], "1"), (["b"], "9"), (["d"], "4")]
    assert changed_entries(old, new) == [
        'changed ["b"]', 'added ["d"]', 'dropped ["c"]', "3 entries differ from cli_golden.json (3 in the new deck)",
    ]


def _record():
    os.environ["COLUMNS"] = COLUMNS
    deck = [(argv, outcome_hash(argv)) for argv in golden_deck()]
    old = _load()["deck"] if GOLDEN.exists() else []
    print("\n".join(changed_entries(old, deck)))
    lines = [json.dumps([list(argv), digest]) for argv, digest in deck]
    GOLDEN.write_text(
        '{"python": "%s", "columns": "%s", "deck": [\n%s\n]}\n'
        % (_python(), COLUMNS, ",\n".join(lines))
    )


if __name__ == "__main__":
    _record()
