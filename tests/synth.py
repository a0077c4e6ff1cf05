"""Seeded graph generators shared by the test modules."""

from __future__ import annotations

import random

from chatnet.graph import MentionGraph, UndirectedView


def nick(v: int) -> str:
    return f"n{v:03d}"


def random_digraph(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]


def random_ugraph(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]


def as_mention_graph(n: int, edges, weights=None) -> MentionGraph:
    triples = [
        (nick(u), nick(v), 1 if weights is None else weights[i])
        for i, (u, v) in enumerate(edges)
    ]
    return MentionGraph.from_edge_list(triples, extra_nodes=[nick(v) for v in range(n)])


def binarized(g: MentionGraph) -> MentionGraph:
    """The same nodes and arcs, every arc of weight 1."""
    return MentionGraph(g.nicks, {(a, b): 1 for a, b, _ in g.edges_by_nick()})


def as_undirected(n: int, weighted_edges) -> UndirectedView:
    triples = [(nick(u), nick(v), w) for u, v, w in weighted_edges]
    return UndirectedView.from_edge_list(triples, extra_nodes=[nick(v) for v in range(n)])


def ids_of(graph, named) -> frozenset[int]:
    return frozenset(graph.id_of(x) for x in named)


def preferential_attachment_graph(
    n: int = 2400, edge_target: int = 9400, seed: int = 7
) -> MentionGraph:
    """Community-scale synthetic digraph: new users address established ones.

    Degree-proportional target choice plus occasional reciprocation gives a
    connected graph with a real strongly connected core.
    """
    rng = random.Random(seed)
    core = 5
    edges: dict[tuple[int, int], int] = {}
    pool: list[int] = []

    def add_edge(a: int, b: int) -> bool:
        if a == b or (a, b) in edges or len(edges) >= edge_target:
            return False
        edges[(a, b)] = rng.randint(1, 5)
        pool.append(a)
        pool.append(b)
        return True

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
    triples = [
        (f"user{a:04d}", f"user{b:04d}", w) for (a, b), w in sorted(edges.items())
    ]
    return MentionGraph.from_edge_list(
        triples, extra_nodes=[f"user{v:04d}" for v in range(n)]
    )


_CHAT_WORDS = "the a is on it apt grub boot kernel fix try log disk wifi thanks yes no".split()


def write_chat_logs(directory, seed: int, days: int, lines_per_day: int, users: int = 150):
    """Daily logs ``2014-03-DD.txt`` of a busy channel; returns (path, date) pairs.

    Speakers address a recent speaker as ``nick:`` or mid-sentence, in any
    letter case; actions, notices, malformed lines and non-ASCII text are
    mixed in.  Each day a few new users arrive, some of them mentioned a
    day before they first speak; ``quiet0`` to ``quiet4`` are mentioned and
    never speak.
    """
    rng = random.Random(seed)
    names = [f"{rng.choice(['ubu', 'dev', 'kim', 'zed', 'ol'])}{k}" for k in range(users)]
    quiet = [f"quiet{k}" for k in range(5)]
    files = []
    for day in range(days):
        present = names[: users * (day + 1) // days]
        ahead = names[len(present) : len(present) + 5]
        recent = present[:3]
        lines = []
        for i in range(lines_per_day):
            stamp = f"[{i * 1440 // lines_per_day // 60:02d}:{i * 1440 // lines_per_day % 60:02d}]"
            who = rng.choice(present)
            roll = rng.random()
            if roll < 0.03:
                lines.append(rng.choice(["garbage", "[99:99] <x> y", "--- Day changed"]))
            elif roll < 0.08:
                lines.append(f"{stamp} *** {who} has joined #help")
            elif roll < 0.12:
                lines.append(f"{stamp} * {who} waves at {rng.choice(recent)}")
            else:
                words = rng.choices(_CHAT_WORDS, k=rng.randint(2, 10))
                target = rng.choice(recent + ahead + quiet if rng.random() < 0.1 else recent)
                target = target.upper() if rng.random() < 0.1 else target
                if rng.random() < 0.5:
                    words.insert(0, f"{target}:")
                else:
                    words.insert(rng.randrange(len(words) + 1), target)
                if rng.random() < 0.05:
                    words.append("café ✓")
                lines.append(f"{stamp} <{'@' if roll > 0.97 else ''}{who}> {' '.join(words)}")
            recent = (recent + [who])[-6:]
        path = directory / f"2014-03-{day + 1:02d}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        files.append((str(path), f"2014-03-{day + 1:02d}"))
    return files
