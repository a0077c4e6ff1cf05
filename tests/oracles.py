"""Brute-force reference implementations used to check the fast paths.

Everything here trades time for obviousness: transitive closures, subset
enumeration, remove-and-recount, exhaustive 2-partitions, top links read
from the whole cut tree, and the log-line grammar as three regexes tried
one line at a time.  Nothing imports package internals beyond public
constructors, constants and the public ``gomory_hu``, so the two routes
stay independent.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from chatnet.connectivity import gomory_hu
from chatnet.ingest import ACTION, SYSTEM, USER_MESSAGE, ChatMessage


def closure(n, edges):
    """Reflexive boolean reachability matrix by Floyd-Warshall."""
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        reach[v][v] = True
    for u, v in edges:
        reach[u][v] = True
    for k in range(n):
        row_k = reach[k]
        for i in range(n):
            if reach[i][k]:
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return reach


def scc_oracle(n, edges):
    """Mutual-reachability classes from the closure."""
    reach = closure(n, edges)
    assigned = [False] * n
    comps = []
    for v in range(n):
        if assigned[v]:
            continue
        comp = {w for w in range(n) if reach[v][w] and reach[w][v]}
        for w in comp:
            assigned[w] = True
        comps.append(frozenset(comp))
    return comps


def bowtie_oracle(n, edges):
    """Six-region labels from raw reachability, core class first.

    Returns (label dict over ids, core id set).  Tie-break for the core:
    largest component, then the one holding the smallest id.
    """
    if n == 0:
        return {}, frozenset()
    reach = closure(n, edges)
    comps = scc_oracle(n, edges)
    core = max(comps, key=lambda c: (len(c), -min(c)))
    rep = min(core)
    label = {}
    upstream, downstream = set(), set()
    for v in range(n):
        if v in core:
            label[v] = "SCC"
        elif reach[v][rep]:
            label[v] = "IN"
            upstream.add(v)
        elif reach[rep][v]:
            label[v] = "OUT"
            downstream.add(v)
    for v in range(n):
        if v in label:
            continue
        from_in = any(reach[u][v] for u in upstream)
        to_out = any(reach[v][w] for w in downstream)
        if from_in and to_out:
            label[v] = "TUBES"
        elif from_in:
            label[v] = "INTENDRILS"
        elif to_out:
            label[v] = "OUTTENDRILS"
        else:
            label[v] = "OTHERS"
    return label, frozenset(core)


def cliques_oracle(n, adj, min_size=1):
    """All complete-and-maximal vertex subsets by full enumeration."""
    cliques = set()
    for r in range(1, n + 1):
        for sub in itertools.combinations(range(n), r):
            if not all(b in adj[a] for a, b in itertools.combinations(sub, 2)):
                continue
            subset = set(sub)
            extendable = any(
                all(member in adj[v] for member in sub)
                for v in range(n)
                if v not in subset
            )
            if not extendable and r >= min_size:
                cliques.add(frozenset(sub))
    return cliques


def component_count(n, adj, removed=frozenset()):
    seen = set(removed)
    count = 0
    for v in range(n):
        if v in seen:
            continue
        count += 1
        seen.add(v)
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen and y not in removed:
                    seen.add(y)
                    stack.append(y)
    return count


def cutpoints_oracle(n, adj):
    """Remove each node in turn and recount components."""
    base = component_count(n, adj)
    cuts = set()
    for v in range(n):
        if component_count(n, adj, removed={v}) > base:
            cuts.add(v)
    return cuts


def blocks_oracle(n, adj):
    """Maximal connected induced subgraphs without internal cutpoints.

    Bridges count as two-node blocks and isolated nodes as singletons.
    """

    def induced(sub):
        subset = set(sub)
        return [adj[v] & subset if v in subset else set() for v in range(n)]

    def connected_on(sub, local):
        sub = list(sub)
        seen = {sub[0]}
        stack = [sub[0]]
        while stack:
            x = stack.pop()
            for y in local[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(sub)

    candidates = []
    for r in range(2, n + 1):
        for sub in itertools.combinations(range(n), r):
            local = induced(sub)
            if not connected_on(sub, local):
                continue
            has_cut = False
            if r > 2:
                for v in sub:
                    rest = [w for w in sub if w != v]
                    trimmed = [local[w] - {v} if w != v else set() for w in range(n)]
                    if not connected_on(rest, trimmed):
                        has_cut = True
                        break
            if not has_cut:
                candidates.append(frozenset(sub))
    blocks = {s for s in candidates if not any(s < t for t in candidates)}
    blocks |= {frozenset((v,)) for v in range(n) if not adj[v]}
    return blocks


def all_pairs_min_cut(n, weighted_edges):
    """Exact lambda matrix by enumerating every 2-partition."""
    lam = np.zeros((n, n))
    if n < 2:
        return lam
    masks = np.arange(1 << n, dtype=np.uint32)
    if weighted_edges:
        us = np.array([e[0] for e in weighted_edges], dtype=np.uint32)
        vs = np.array([e[1] for e in weighted_edges], dtype=np.uint32)
        caps = np.array([e[2] for e in weighted_edges], dtype=float)
        crossing = ((masks[:, None] >> us[None, :]) & 1) != (
            (masks[:, None] >> vs[None, :]) & 1
        )
        cut_weight = crossing @ caps
    else:
        cut_weight = np.zeros(len(masks))
    for a in range(n):
        bit_a = (masks >> a) & 1
        for b in range(a + 1, n):
            separating = bit_a != ((masks >> b) & 1)
            value = float(cut_weight[separating].min())
            lam[a, b] = lam[b, a] = value
    return lam


def top_links_by_full_tree(u, k):
    """Top links ranked from the whole weighted cut tree of the view.

    Every edge is scored: at each distinct tree value, descending, the
    edges whose ends share a component of the tree's edges at or above it
    score that value.  Ties by edge weight, then by nick pair.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    edges = list(u.edges())
    if not edges:
        return []
    tree = gomory_hu(u, "weighted")
    n = len(tree.up)
    children = np.flatnonzero(tree.up >= 0)
    parents, caps = tree.up[children], tree.capacity[children]
    ends = np.array([(a, b) for a, b, _ in edges], dtype=np.int64)
    scores = np.zeros(len(edges))
    remaining = np.arange(len(edges))
    for value in np.unique(caps)[::-1]:
        kept = caps >= value
        adj = csr_matrix((np.ones(kept.sum()), (children[kept], parents[kept])), shape=(n, n))
        labels = connected_components(adj, directed=False)[1]
        a, b = ends[remaining].T
        joined = labels[a] == labels[b]
        scores[remaining[joined]] = float(value)
        remaining = remaining[~joined]
    scores = scores.tolist()
    named = [(u.nicks[a], u.nicks[b]) for a, b, _ in edges]
    order = sorted(range(len(edges)), key=lambda e: (-scores[e], -edges[e][2], named[e]))
    return [(named[e], scores[e]) for e in order[:k]]


def hits_eigen_oracle(n, edges, iterations=20000):
    """Dominant eigenvector of the authority operator by long power iteration.

    Each product applies the operator's 64th power, formed once by squaring
    and rescaling (only the direction of a power-iteration step counts), so
    the at least ``iterations`` steps take 64 times fewer numpy calls.  An
    eigensolver is no substitute: its vector is not unique when the top
    eigenvalue repeats, while the iteration keeps the start's share of it.
    """
    adjacency = np.zeros((n, n))
    for u, v in edges:
        adjacency[u, v] = 1.0
    operator = adjacency.T @ adjacency
    for _ in range(6):
        operator = operator @ operator
        scale = np.abs(operator).max()
        if scale > 0:
            operator /= scale
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(-(-iterations // 64)):
        y = operator @ x
        norm = np.linalg.norm(y)
        if norm == 0:
            x = y
            break
        x = y / norm
    hub = adjacency @ x
    norm = np.linalg.norm(hub)
    if norm > 0:
        hub = hub / norm
    return x, hub


def rege_reference(n, weight_of, iterations):
    """Literal transcription of the iterated matching update, on dicts."""
    neighborhoods = [
        sorted(
            u
            for u in range(n)
            if u != v and (weight_of(v, u) or weight_of(u, v))
        )
        for v in range(n)
    ]
    E = {(i, j): 1.0 for i in range(n) for j in range(n)}
    for _ in range(iterations):
        num = {}
        den = {}
        for i in range(n):
            for j in range(n):
                total_num = 0.0
                total_den = 0.0
                for k in neighborhoods[i]:
                    out_ik = weight_of(i, k)
                    in_ik = weight_of(k, i)
                    if neighborhoods[j]:
                        best_val = -1.0
                        best_den = float("inf")
                        for m in neighborhoods[j]:
                            val = E[(k, m)] * (
                                min(out_ik, weight_of(j, m))
                                + min(in_ik, weight_of(m, j))
                            )
                            den_m = max(out_ik, weight_of(j, m)) + max(
                                in_ik, weight_of(m, j)
                            )
                            # equally good matches: keep the tighter one
                            if val > best_val or (val == best_val and den_m < best_den):
                                best_val = val
                                best_den = den_m
                        total_num += best_val
                        total_den += best_den
                    else:
                        total_den += out_ik + in_ik
                num[(i, j)] = total_num
                den[(i, j)] = total_den
        updated = {}
        for i in range(n):
            for j in range(n):
                total_den = den[(i, j)] + den[(j, i)]
                if total_den > 0:
                    updated[(i, j)] = (num[(i, j)] + num[(j, i)]) / total_den
                else:
                    updated[(i, j)] = 1.0  # both endpoints isolated
        for i in range(n):
            updated[(i, i)] = 1.0
        E = updated
    return E


# The line-by-line log parser: one regex per line shape, tried in turn.
_STATUS_PREFIXES = "@+"
CONTROL_CHARS = r"\x00-\x1f\x7f-\x9f"
_TIME = r"\[(\d{1,2}):(\d{2})(?::(\d{2}))?\]"
_NICK = rf"([^\s<>{CONTROL_CHARS}]+)"
_USER_RE = re.compile(_TIME + rf" <{_NICK}>(?: (.*))?$")
_ACTION_RE = re.compile(_TIME + rf" \* {_NICK}(?: (.*))?$")
_NOTICE_RE = re.compile(_TIME + r" (?:\*\*\*|===) (.+)$")
_NOTICE_EVENT_RE = re.compile(
    rf"^{_NICK} (?:\[[^\]]*\] )?"
    r"(?:has joined|has left|has parted|has quit|changed the topic)\b"
)


def _clock(hh: str, mm: str) -> str | None:
    h, m = int(hh), int(mm)
    if h > 23 or m > 59:
        return None
    return f"{h:02d}:{m:02d}"


def parse_line_oracle(line, date):
    """One physical log line as a ChatMessage, or None for a skipped line."""
    line = line.rstrip("\r\n")
    for pattern, kind in ((_USER_RE, USER_MESSAGE), (_ACTION_RE, ACTION)):
        m = pattern.match(line)
        if m:
            hh, mm, _sec, nick, body = m.groups()
            time = _clock(hh, mm)
            nick = nick.lstrip(_STATUS_PREFIXES)
            if time is None or not nick:
                return None
            return ChatMessage(date, time, nick, body or "", kind)
    m = _NOTICE_RE.match(line)
    if m:
        hh, mm, _sec, rest = m.groups()
        time = _clock(hh, mm)
        event = _NOTICE_EVENT_RE.match(rest)
        if time is None or event is None:
            return None
        nick = event.group(1).lstrip(_STATUS_PREFIXES)
        if not nick:
            return None
        return ChatMessage(date, time, nick, rest, SYSTEM)
    return None


# Characters legal in IRC nicks; anything else is a token boundary.
_TOKEN_RE = re.compile(r"[0-9A-Za-z\[\]\\`_^{|}-]+")


def mention_weights_oracle(messages, roster_nicks, min_nick_length, case_insensitive):
    """(sender, target) -> number of user messages in which sender names target.

    Every token is folded on its own, so folding can never create a token.
    """
    matchable = frozenset(nick for nick in roster_nicks if len(nick) >= min_nick_length)
    weights = {}
    for msg in messages:
        if msg.kind != USER_MESSAGE:
            continue
        sender = msg.nick.casefold()
        if sender not in roster_nicks:
            continue
        mentioned = set()
        for token in _TOKEN_RE.findall(msg.body):
            key = token.casefold() if case_insensitive else token
            if key in matchable and key != sender:
                mentioned.add(key)
        for target in mentioned:
            key = (sender, target)
            weights[key] = weights.get(key, 0) + 1
    return weights
