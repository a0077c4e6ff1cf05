"""Parsing of archived IRC-style chat logs into a time-ordered corpus.

Log files are plain text, one message per physical line, with channel-local
``[HH:MM]`` timestamps (a seconds-bearing ``[HH:MM:SS]`` variant is accepted,
archive styles vary by year).  Three line shapes are recognized:

    [08:43] <mdz> lifeless: ok, it sounds like you're agreeing with me, then
    [08:45] * fabbione nods
    [08:46] *** lifeless has joined #channel

Everything else is skipped and counted, never fatal: chat archives are
informal and a parser that aborts on one bad line is useless on them.
"""

from __future__ import annotations

import datetime as dt
import json
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

USER_MESSAGE = "user_message"
ACTION = "action"
SYSTEM = "system"
KINDS = (USER_MESSAGE, ACTION, SYSTEM)

# Channel operator / voice markers that some archives keep on the nick.
_STATUS_PREFIXES = "@+"

# Unicode category Cc, as a regex class body.  No nick may hold one: XML 1.0
# cannot carry most of them, and a bare \r breaks the CSV edge list.
CONTROL_CHARS = r"\x00-\x1f\x7f-\x9f"

# One grammar for every line shape, anchored at both ends of a line.  The
# text after "] " picks the shape: "<" a message, "* " an action, "*** " or
# "=== " a notice, so the three branches are exclusive.  A nick drops its
# status markers and must keep one other character.  No part of a line
# matches \n, so the pattern finds whole lines in a whole file.  Trailing \r
# characters are dropped, as parse_line strips them; an inner \r is text.
_CLOCK = r"\d{1,2}:\d{2}"
_NICK_NAME = rf"[^\s<>{_STATUS_PREFIXES}{CONTROL_CHARS}][^\s<>{CONTROL_CHARS}]*"
_NICK = rf"[{_STATUS_PREFIXES}]*({_NICK_NAME})"
_LINE_RE = re.compile(
    rf"^\[({_CLOCK})(?::\d{{2}})?\] (?:"
    rf"<{_NICK}>(?: (.*))?"
    rf"|\* {_NICK}(?: (.*))?"
    rf"|(?:\*\*\*|===) ({_NICK} (?:\[[^\]\n]*\] )?"
    r"(?:has joined|has left|has parted|has quit|changed the topic)\b.*)"
    r")(?<!\r)\r*$",
    re.MULTILINE,
)
_CLOCK_RE = re.compile(_CLOCK)
_NICK_RE = re.compile(_NICK_NAME)
_LOG_NAME_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})")


@dataclass(frozen=True, slots=True)
class ChatMessage:
    """One parsed log line attributed to a sender.

    A corpus holds its lines as ``MessageColumns`` and builds these only
    when its ``messages`` are read.
    """

    date: dt.date
    time: str  # "HH:MM", channel-local 24h clock
    nick: str
    body: str
    kind: str


_FIELDS = ("date", "time", "nick", "body", "kind")


@dataclass(frozen=True, slots=True)
class MessageColumns:
    """The messages of one date as columns: row i of each is message i.

    Times, nicks and kinds are strings shared among the rows, so a message
    costs four pointers besides its body.
    """

    date: dt.date
    times: tuple[str, ...]
    nicks: tuple[str, ...]
    bodies: tuple[str, ...]
    kinds: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.times)

    def messages(self) -> Iterator[ChatMessage]:
        return map(ChatMessage, repeat(self.date), self.times, self.nicks, self.bodies, self.kinds)


def _runs(rows: Iterable[tuple]) -> tuple[MessageColumns, ...]:
    # Columns per run of consecutive (date, time, nick, body, kind) rows
    # with one date.
    return tuple(
        MessageColumns(date, *islice(zip(*run), 1, None))
        for date, run in groupby(rows, itemgetter(0))
    )


# Per kind, a record's log line after the clock, from its nick and body, and
# the _LINE_RE groups that read them back.
_RECORD_LINES = {
    USER_MESSAGE: ("<{}> {}", (2, 3)),
    ACTION: ("* {} {}", (4, 5)),
    SYSTEM: ("*** {1}", (7, 6)),
}


def _row_from_record(record, dates: dict, strings: dict) -> tuple:
    # A (date, time, nick, body, kind) row, only if a log line could give
    # it.  ``dates`` maps each date text read so far to its date,
    # ``strings`` each time, nick and kind text to the one copy rows share.
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    for name in _FIELDS:
        if not isinstance(record[name], str):
            raise ValueError(f"field {name!r} must be a string")
    date, time, nick, body, kind = (record[name] for name in _FIELDS)
    if kind not in KINDS:
        raise ValueError(f"unknown message kind {kind!r}")
    if not (_CLOCK_RE.fullmatch(time) and _clock(time) == time):
        raise ValueError(f"time {time!r} is not a 24-hour HH:MM clock")
    if not _NICK_RE.fullmatch(nick):
        if re.search(f"[{CONTROL_CHARS}]", nick):
            raise ValueError(f"nick {nick!r} contains a control character")
        raise ValueError(f"nick {nick!r} is not a log nick (empty, status marker first, "
                         "or whitespace, < or > in it)")
    if "\n" in body:
        raise ValueError("body holds a line break")
    shape, groups = _RECORD_LINES[kind]
    m = _LINE_RE.fullmatch(f"[{time}] " + shape.format(nick, body))
    if not m or m.group(*groups) != (nick, body):
        raise ValueError(f"no log line gives {kind} {body!r} from {nick!r}")
    if date not in dates:
        dates[date] = _coerce_date(date)
    shared = strings.setdefault
    return dates[date], shared(time, time), shared(nick, nick), body, shared(kind, kind)


@dataclass(frozen=True)
class FileStats:
    """Per-file parse accounting: parsed + skipped == total_lines."""

    path: str
    date: dt.date
    parsed: int
    skipped: int
    total_lines: int


class ChatCorpus:
    """Time-ordered messages concatenated over the input files.

    ``ChatCorpus(messages, file_stats)`` takes ``ChatMessage`` objects, but
    the corpus holds ``columns``: one ``MessageColumns`` per log file, or
    per run of one date.  ``messages`` builds the objects anew each time it
    is read; counting, the roster, extraction and the JSONL text read the
    columns and build none.
    """

    __slots__ = ("columns", "file_stats")

    def __init__(self, messages: Iterable[ChatMessage] = (), file_stats: Iterable[FileStats] = ()):
        self.columns = _runs(map(attrgetter(*_FIELDS), messages))
        self.file_stats = tuple(file_stats)

    @classmethod
    def from_columns(
        cls, columns: Iterable[MessageColumns], file_stats: Iterable[FileStats]
    ) -> "ChatCorpus":
        corpus = cls.__new__(cls)
        corpus.columns = tuple(columns)
        corpus.file_stats = tuple(file_stats)
        return corpus

    @property
    def messages(self) -> tuple[ChatMessage, ...]:
        return tuple(chain.from_iterable(columns.messages() for columns in self.columns))

    @property
    def message_count(self) -> int:
        return sum(map(len, self.columns))

    @property
    def skipped_count(self) -> int:
        return sum(s.skipped for s in self.file_stats)


@dataclass(frozen=True)
class Roster:
    """Participants who authored at least one message, keyed by case-folded nick."""

    counts: dict[str, int]

    @property
    def nicks(self) -> frozenset[str]:
        return frozenset(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, nick: str) -> bool:
        return nick.casefold() in self.counts


def _clock(clock: str) -> str | None:
    hh, mm = clock.split(":")
    h, m = int(hh), int(mm)
    if h > 23 or m > 59:
        return None
    return f"{h:02d}:{m:02d}"


def _columns(rows, date: dt.date) -> MessageColumns:
    # The messages in the groups of _LINE_RE matches, one tuple per line.
    # Rows share one string per clock and per nick.
    clocks: dict[str, str | None] = {}
    shared: dict[str, str] = {}
    times, nicks, bodies, kinds = [], [], [], []
    for clock, user, said, actor, did, notice, noticer in rows:
        try:
            time = clocks[clock]
        except KeyError:
            time = clocks[clock] = _clock(clock)
        if time is None:
            continue
        if user:
            nick, body, kind = user, said, USER_MESSAGE
        elif actor:
            nick, body, kind = actor, did, ACTION
        else:
            nick, body, kind = noticer, notice, SYSTEM
        times.append(time)
        nicks.append(shared.setdefault(nick, nick))
        bodies.append(body)
        kinds.append(kind)
    return MessageColumns(date, tuple(times), tuple(nicks), tuple(bodies), tuple(kinds))


def parse_line(line: str, date: dt.date) -> ChatMessage | None:
    """Parse one physical log line for the given file date.

    Returns None for anything that does not match the message, action, or
    recognized-notice grammars; callers count those lines as skipped.  The
    grammar is the one ``parse_corpus`` runs over whole files, matched here
    against the whole line, so text after an inner \\n makes no match.
    """
    m = _LINE_RE.fullmatch(line.rstrip("\r\n"))
    return next(_columns([m.groups("")] if m else [], date).messages(), None)


def _coerce_date(value) -> dt.date:
    # A date, or its text as YYYY-MM-DD: date.fromisoformat alone also
    # reads 20140301 and 2014-W09-6.
    if isinstance(value, dt.date):
        return value
    text = str(value)
    date = dt.date.fromisoformat(text)
    if date.isoformat() != text:
        raise ValueError(f"date {text!r} is not a YYYY-MM-DD date")
    return date


def read_text(path, errors: str = "strict") -> str:
    r"""A UTF-8 file's text as stored, less a leading byte-order mark: \r and
    \r\n are not turned into \n.
    """
    with open(path, encoding="utf-8-sig", errors=errors, newline="") as fh:
        return fh.read()


def split_lines(text: str) -> list[str]:
    r"""The lines of a text, where only \n ends a line.

    Python's line splitting would also break at \x0b, \x0c, \x1c-\x1e,
    \x85, U+2028 and U+2029; here they are text, as in a log message
    (\x1d is mIRC's italic code) or a comment.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line starts none
    return lines


def _parse_one_file(path: str, date: dt.date) -> tuple[MessageColumns, FileStats]:
    try:
        text = read_text(path, errors="replace")
    except OSError as exc:
        raise OSError(f"cannot read log file '{path}': {exc}") from exc
    columns = _columns(_LINE_RE.findall(text), date)
    # as many lines as split_lines gives, without building them
    total = text.count("\n") + (text != "" and not text.endswith("\n"))
    return columns, FileStats(path, date, len(columns), total - len(columns), total)


def parse_corpus(files: Sequence[tuple[str, object]]) -> ChatCorpus:
    """Parse log files given as (path, date) pairs, in the order given.

    Each file is decoded whole and read by one pass of the line grammar
    that ``parse_line`` uses, so a file's messages are exactly
    ``parse_line`` of each of its ``split_lines``.  The corpus keeps each
    file's messages as ``MessageColumns`` and builds no ``ChatMessage``;
    the rows share one string per clock and per nick, which holds about
    136 bytes per message, body included, on chat-shaped logs.
    Parsing is serial: it is regex-bound and holds the GIL, so a thread pool
    measured slower than one thread.  The only thread knob left is
    ``run_pipeline``'s ``threads`` (the CLI's ``--threads``), kept for
    compatibility and ignored.
    """
    entries = [(str(path), _coerce_date(date)) for path, date in files]
    if not entries:
        raise ValueError("empty input set")
    for (_, before), (_, after) in zip(entries, entries[1:]):
        if after <= before:
            raise ValueError("file dates must be strictly increasing")
    parsed = [_parse_one_file(path, date) for path, date in entries]
    return ChatCorpus.from_columns(*zip(*parsed))


def build_roster(corpus: ChatCorpus, prior_nicks: Iterable[str] = ()) -> Roster:
    """Distinct case-folded nicks over user messages and actions, with counts.

    ``prior_nicks`` folds in an externally supplied participant list (users
    known from a larger archive); such entries keep a zero count here.
    """
    counts: dict[str, int] = {}
    for columns in corpus.columns:
        spoke = Counter(nick for nick, kind in zip(columns.nicks, columns.kinds) if kind != SYSTEM)
        for nick, count in spoke.items():
            nick = nick.casefold()
            counts[nick] = counts.get(nick, 0) + count
    for nick in prior_nicks:
        counts.setdefault(nick.casefold(), 0)
    return Roster(counts)


def corpus_jsonl_text(corpus: ChatCorpus) -> str:
    """Newline-delimited JSON serialization, one record per message."""
    lines = []
    for columns in corpus.columns:
        date = columns.date.isoformat()
        for row in zip(columns.times, columns.nicks, columns.bodies, columns.kinds):
            record = dict(zip(_FIELDS, (date, *row)))
            lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    return "".join(lines)


def write_corpus_jsonl(corpus: ChatCorpus, path) -> None:
    Path(path).write_text(corpus_jsonl_text(corpus), encoding="utf-8")


def read_corpus_jsonl(path) -> ChatCorpus:
    """Load a corpus previously written by ``write_corpus_jsonl``.

    A record is refused, naming its line, unless a log line could give it:
    the date is ``YYYY-MM-DD``, the time a zero-padded 24-hour ``HH:MM``,
    the nick one the line grammar reads, with no status marker first
    and no whitespace, ``<``, ``>`` or control character, the body holds
    no \\n, and the line grammar reads the record's log line, ``<nick>
    body``, ``* nick body`` or ``*** body``, back as that nick and body: so
    a system body is a notice by its nick, and no body ends in \\r.
    Per-date file stats are synthesized (the JSONL stream does not retain
    the original per-file skip counts).  The rows share their dates,
    clocks and nicks as parsed logs do.
    """
    dates: dict[str, dt.date] = {}
    strings: dict[str, str] = {}
    rows = []
    with open(path, encoding="utf-8-sig", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(_row_from_record(json.loads(line), dates, strings))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad corpus record: {exc}") from exc
    columns = _runs(rows)
    per_date: dict[dt.date, int] = {}
    for run in columns:
        per_date[run.date] = per_date.get(run.date, 0) + len(run)
    stats = tuple(
        FileStats(str(path), date, count, 0, count)
        for date, count in per_date.items()
    )
    return ChatCorpus.from_columns(columns, stats)


def data_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of a text file that is
    not blank and whose first non-blank character is not '#'."""
    for lineno, raw in enumerate(split_lines(read_text(path)), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def read_roster_file(path) -> list[str]:
    """Prior participant list: one nick per line, '#' comments allowed."""
    return [entry for _, entry in data_lines(path)]


def date_from_filename(path) -> dt.date | None:
    """Extract the log date from names like ``2011-06-02.txt``, else None."""
    m = _LOG_NAME_RE.search(Path(path).name)
    if not m:
        return None
    try:
        return dt.date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    except ValueError:
        return None


def discover_log_files(paths: Iterable[str]) -> list[tuple[str, dt.date]]:
    """Resolve files/directories to (path, date) pairs via the name convention.

    Directories are scanned non-recursively for ``*.txt`` and ``*.log``,
    in any letter case.  The result is sorted by date; undatable filenames
    are an error.
    """
    candidates: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            candidates.extend(
                entry
                for entry in sorted(path.iterdir())
                if entry.suffix.lower() in (".txt", ".log") and entry.is_file()
            )
        else:
            candidates.append(path)
    resolved = []
    for path in candidates:
        date = date_from_filename(path)
        if date is None:
            raise ValueError(
                f"cannot infer a date from '{path}' (expected YYYY-MM-DD in the "
                "name); use a manifest instead"
            )
        resolved.append((str(path), date))
    resolved.sort(key=lambda pair: (pair[1], pair[0]))
    return resolved


def read_manifest(path) -> list[tuple[str, dt.date]]:
    """Explicit file-to-date mapping: CSV lines ``path,YYYY-MM-DD``, in just that form."""
    entries = []
    base = Path(path).parent
    for lineno, line in data_lines(path):
        try:
            file_part, date_part = line.rsplit(",", 1)
            date = _coerce_date(date_part.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad manifest line: {line!r}") from exc
        file_path = Path(file_part.strip())
        if not file_path.is_absolute():
            file_path = base / file_path
        entries.append((str(file_path), date))
    return entries
