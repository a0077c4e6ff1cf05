"""Seeded inputs for the benchmark workloads.

Everything here is generated from a seed with ``random.Random``; nothing is
read from the network or from files outside the benchmark's work directory.
The program under test only ever sees the files these functions write.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

# Seed whose report digests are recorded in digests.json for every workload;
# for pa-report it is the criterion-10 graph of the acceptance suite.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    # "logs": the program reads raw daily log files; "csv": a graph edge list.
    input_kind: str
    analyses: tuple[str, ...] | None  # None: the report's default (all)
    lambda_mode: str = "unit"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pa-report", "csv", None),
        Workload(
            "chat-report",
            "logs",
            ("stats", "hits", "bowtie", "skeleton", "cliques", "blocks", "lambda"),
            lambda_mode="weighted",
        ),
    )
}

# Input sizes.  "full" is what the benchmark measures; "tiny" only feeds the
# self-test, which must finish in seconds.
PA_SIZES = {"full": (2400, 9400), "tiny": (120, 470)}
CHAT_SIZES = {
    "full": dict(days=20, lines_per_day=10_000, regulars=1_600, visitors_per_day=185),
    "tiny": dict(days=2, lines_per_day=600, regulars=60, visitors_per_day=12),
}


def pa_edges(n: int, edge_target: int, seed: int) -> dict[tuple[int, int], int]:
    """Preferential-attachment digraph: new users address established ones.

    Same construction, draw for draw, as the acceptance suite's criterion-10
    generator, so seed 7 at 2400/9400 reproduces that graph.
    """
    rng = random.Random(seed)
    core = 5
    edges: dict[tuple[int, int], int] = {}
    pool: list[int] = []

    def add_edge(a: int, b: int) -> None:
        if a == b or (a, b) in edges or len(edges) >= edge_target:
            return
        edges[(a, b)] = rng.randint(1, 5)
        pool.append(a)
        pool.append(b)

    for i in range(core):
        add_edge(i, (i + 1) % core)
        add_edge((i + 1) % core, i)
    for v in range(core, n):
        targets: set[int] = set()
        attempts = 0
        while len(targets) < 3 and attempts < 200:
            candidate = pool[rng.randrange(len(pool))]
            attempts += 1
            if candidate != v:
                targets.add(candidate)
        for t in sorted(targets):
            add_edge(v, t)
            if rng.random() < 0.12:
                add_edge(t, v)
    while len(edges) < edge_target:
        add_edge(pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))])
    return edges


def write_pa_csv(path: Path, seed: int, size: str) -> None:
    """The pa-report input: a graph CSV with every user of the graph on an edge."""
    n, m = PA_SIZES[size]
    edges = pa_edges(n, m, seed)
    rows = sorted((f"user{a:04d}", f"user{b:04d}", w) for (a, b), w in edges.items())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source", "target", "weight"])
        writer.writerows(rows)


# Filler vocabulary for message bodies.  Nicks are generated so that none of
# them is one of these words, so every mention in the corpus is intended.
_WORDS = (
    "the a to is it and of you in that for on with this have not but what can"
    " do if be just so was my there are at me how like use try work get think"
    " know need then from one now when yes no ok about here should thanks all"
    " kernel driver package install update boot grub config file error log"
    " build patch bug fix release branch merge test server client network"
    " wifi card disk partition mount screen display xorg sound module repo"
    " upgrade version source binary library script shell command terminal"
    " output line path user root sudo apt dpkg make gcc python perl window"
    " menu panel theme font mouse keyboard laptop desktop cpu memory swap"
    " works broken again still maybe really probably already instead"
).split()
_WORD_SET = frozenset(_WORDS)
_ONSETS = "b c d f g h j k l m n p r s t v w z br ch dr fl gr kr pl sh st th tr".split()
_VOWELS = "a e i o u y ae ai ea ee io oo ou".split()
_CODAS = ["", "", "", "n", "r", "s", "x", "k", "l", "m", "th"]
_SUFFIXES = ["", "", "", "", "", "_", "__", "^", "-", "`", "|away", "[m]", "1", "2", "7", "42", "99", "2k"]
_GARBAGE = (
    "random garbage line",
    "-- MARK --",
    "[99:99] <broken> clock out of range",
    "<nobody> a line without a timestamp",
    "[12:00] <> empty nick",
    "[12:00] *** netsplit over",
    "Session Close: Mon Jan 1 00:00:00",
)
_QUIT_REASONS = ("Quit: leaving", "Ping timeout: 240 seconds", "Remote host closed the connection", "Client Quit")


def _make_nicks(rng: random.Random, count: int) -> list[str]:
    """Distinct IRC nicks (distinct after case-folding), none a filler word."""
    nicks: list[str] = []
    seen: set[str] = set()
    while len(nicks) < count:
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.choice((1, 2, 2, 2, 3)))
        )
        nick = stem + rng.choice(_SUFFIXES)
        key = nick.casefold()
        if len(nick) < 3 or key in seen or key in _WORD_SET:
            continue
        seen.add(key)
        nicks.append(nick)
    return nicks


def _variant(rng: random.Random, nick: str) -> str:
    """How a nick is written when mentioned: usually as is, sometimes recased."""
    r = rng.random()
    if r < 0.08:
        return nick.capitalize()
    if r < 0.11:
        return nick.upper()
    return nick


def _body(rng: random.Random) -> str:
    return " ".join(rng.choices(_WORDS, k=rng.randint(2, 12)))


def write_chat_logs(out_dir: Path, seed: int, size: str) -> None:
    """Write daily IRC logs ``YYYY-MM-DD.txt`` shaped like a busy help channel.

    Regulars speak with Zipf activity; each day brings one-off visitors who
    say one to three lines.  Speakers address the previous or a recent
    speaker as ``nick: ...`` and sometimes mention a recent speaker
    mid-sentence.  Actions, join/part/quit notices, malformed lines,
    ``@``/``+`` status prefixes and recased nick variants are mixed in.
    """
    p = CHAT_SIZES[size]
    rng = random.Random(seed)
    days, per_day, daily = p["days"], p["lines_per_day"], p["visitors_per_day"]
    nicks = _make_nicks(rng, p["regulars"] + days * daily)
    regulars = nicks[: p["regulars"]]
    # A few regulars always type their nick with a capital letter.
    shown = {n: (n.capitalize() if rng.random() < 0.05 else n) for n in nicks}
    cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(regulars))))
    out_dir.mkdir(parents=True, exist_ok=True)
    for day in range(days):
        lines = []
        first = p["regulars"] + day * daily
        visit_at: dict[int, str] = {}
        for v in nicks[first : first + daily]:
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                visit_at[rng.randrange(per_day)] = v
        recent: list[str] = []
        previous = None
        for i in range(per_day):
            minute = i * 1440 // per_day
            stamp = f"[{minute // 60:02d}:{minute % 60:02d}]"
            if rng.random() < 0.1:
                stamp = stamp[:-1] + f":{rng.randrange(60):02d}]"
            if i in visit_at:
                speaker = visit_at[i]
            elif len(recent) > 1 and rng.random() < 0.35:
                # someone already in the conversation answers
                speaker = rng.choice(recent[:-1])
            else:
                speaker = regulars[bisect.bisect(cum, rng.random() * cum[-1])]
            r = rng.random()
            if r < 0.01:
                lines.append(rng.choice(_GARBAGE))
                continue
            if r < 0.07:
                event = rng.random()
                if event < 0.5:
                    text = f"{speaker} has joined #help"
                elif event < 0.7:
                    text = f"{speaker} has left #help"
                else:
                    text = f"{speaker} has quit [{rng.choice(_QUIT_REASONS)}]"
                lines.append(f"{stamp} *** {text}")
                continue
            others = [n for n in recent if n != speaker]
            if r < 0.10:
                target = f" at {_variant(rng, others[-1])}" if others and rng.random() < 0.5 else ""
                lines.append(f"{stamp} * {shown[speaker]} {rng.choice(('waves', 'nods', 'sighs', 'laughs'))}{target}")
            else:
                body = _body(rng)
                if others and rng.random() < 0.03:
                    words = body.split(" ")
                    words.insert(rng.randrange(len(words) + 1), _variant(rng, rng.choice(others)))
                    body = " ".join(words)
                if previous not in (None, speaker) and rng.random() < 0.25:
                    target = previous if rng.random() < 0.65 or not others else rng.choice(others)
                    body = f"{_variant(rng, target)}{rng.choice((':', ':', ','))} {body}"
                status = rng.random()
                prefix = "@" if status < 0.04 else "+" if status < 0.07 else ""
                lines.append(f"{stamp} <{prefix}{shown[speaker]}> {body}")
            previous = speaker
            if speaker in recent:
                recent.remove(speaker)
            recent.append(speaker)
            del recent[:-8]
        (out_dir / f"2014-03-{day + 1:02d}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
