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
_record_values = itemgetter(*_FIELDS)


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


# Per kind, a record's log line from its time, nick and body.
_RECORD_LINES = {
    USER_MESSAGE: "[{0}] <{1}> {2}",
    ACTION: "[{0}] * {1} {2}",
    SYSTEM: "[{0}] *** {2}",
}


def _record_fields(record) -> tuple[str, ...]:
    # The (date, time, nick, body, kind) strings of a record, a JSON object.
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    values = _record_values(record)
    for name, value in zip(_FIELDS, values):
        if not isinstance(value, str):
            raise ValueError(f"field {name!r} must be a string")
    if values[4] not in KINDS:
        raise ValueError(f"unknown message kind {values[4]!r}")
    return values


def _read_back(path, run) -> MessageColumns:
    # A run of (line number, date, time, nick, body, kind) records of one
    # date, as the columns read from their log lines; the first record whose
    # line does not read back as it is refused.
    linenos, dates, times, nicks, bodies, kinds = zip(*run)
    try:
        date = _coerce_date(dates[0])
    except ValueError as exc:
        raise ValueError(f"{path}:{linenos[0]}: bad corpus record: {exc}") from exc
    lines = map(str.format, map(_RECORD_LINES.get, kinds), times, nicks, bodies)
    columns = _columns(_LINE_RE.findall("\n".join(lines)), date)
    read = (columns.times, columns.nicks, columns.bodies, columns.kinds)
    if read == (times, nicks, bodies, kinds):
        return columns
    pairs = zip(zip(*read), zip(times, nicks, bodies, kinds))
    i = next((i for i, (got, want) in enumerate(pairs) if got != want), len(columns))
    raise ValueError(f"{path}:{linenos[i]}: bad corpus record: no log line gives "
                     f"{kinds[i]} {bodies[i]!r} from {nicks[i]!r} at {times[i]!r}")


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
    per run of one date in a corpus JSONL, each read by the line grammar.
    ``messages`` builds the objects anew each time it
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
    for (first, before), (second, after) in zip(entries, entries[1:]):
        if after <= before:
            raise ValueError(
                f"file dates must be strictly increasing: {first} ({before}) "
                f"is followed by {second} ({after})"
            )
    parsed = [_parse_one_file(path, date) for path, date in entries]
    return ChatCorpus.from_columns(*zip(*parsed))


def build_roster(corpus: ChatCorpus, prior_nicks: Iterable[str] = ()) -> dict[str, int]:
    """Case-folded nick -> number of user messages and actions it sent.

    ``prior_nicks`` folds in an externally supplied participant list (users
    known from a larger archive); a nick that sent nothing here counts 0.
    """
    counts: dict[str, int] = {}
    for columns in corpus.columns:
        spoke = Counter(nick for nick, kind in zip(columns.nicks, columns.kinds) if kind != SYSTEM)
        for nick, count in spoke.items():
            nick = nick.casefold()
            counts[nick] = counts.get(nick, 0) + count
    for nick in prior_nicks:
        counts.setdefault(nick.casefold(), 0)
    return counts


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

    A record is a JSON object whose five fields are strings, its kind one
    of ``KINDS`` and its date ``YYYY-MM-DD``.  Beyond that, a record is
    accepted when its log line reads back as it: ``[time] <nick> body``,
    ``[time] * nick body`` or ``[time] *** body``, read by the grammar that
    ``parse_corpus`` runs over a log file.  Any other record is refused,
    naming its line; with several bad records, the first one is named.
    The corpus has no file stats: a JSONL holds messages, not the log
    lines they were read from, so it has no lines read or skipped to
    account for.  The rows share their clocks and nicks within a run of
    one date, as a parsed log file's rows do.
    """
    records, error = [], None
    with open(path, encoding="utf-8-sig", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append((lineno, *_record_fields(json.loads(line))))
            except (KeyError, ValueError) as exc:
                error = exc
                break
    # the records before line ``lineno`` go first: an earlier bad one is named
    columns = [_read_back(path, run) for _, run in groupby(records, itemgetter(1))]
    if error:
        raise ValueError(f"{path}:{lineno}: bad corpus record: {error}") from error
    return ChatCorpus.from_columns(columns, ())


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
